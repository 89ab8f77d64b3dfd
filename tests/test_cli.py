import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import nfg.cli
from nfg import (
    GaussianState,
    GaussianUnitary,
    SstsParams,
    SweepGrid,
    apply_gaussian_unitary,
    dg_ssts,
    nfg_ssts,
    q_ssts,
    ssts,
    standard_form,
    tmsv,
)
from nfg.cli import CSV_HEADER, _g, main, read_state, write_state

from helpers import random_state


@pytest.fixture
def ssts_file(tmp_path):
    path = tmp_path / "ssts.json"
    write_state(ssts(SstsParams(49.0, 0.9)), str(path))
    return str(path)


def state_doc(cm, n_a, n_b, mean=None):
    doc = {"schema_version": "1", "n_a": n_a, "n_b": n_b, "cm": list(np.ravel(cm))}
    if mean is not None:
        doc["mean"] = list(mean)
    return doc


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


#: A 57 x 33 grid whose n_bar axis reaches 1e13.
HUGE_GRID = ["--n-bar-max", "1e13", "--n-bar-steps", "57", "--mu-steps", "33"]

#: Byte length and SHA-256 of `nfg sweep` CSVs, recorded with the earlier
#: point-by-point implementation (one SstsParams and one f-string per value).
#: The mu = 1 rows at n_bar >= 1e5 changed when the closed forms were clamped
#: below 1: those values print 0.99999999999999989 where they printed 1.
GOLDEN_SWEEPS = {
    "figure-1": (
        ["--figure", "1"],
        314299, "06675975653bbf5d35e1f85be049600aa60152973cce5ae6ab735e9fef3564b7",
    ),
    "figure-2": (
        ["--figure", "2"],
        334103, "1b9ba50c29fd51d9035176d6b8b4e223239d558a798e59005e3ae629a942ca2f",
    ),
    "figure-3": (
        ["--figure", "3"],
        314299, "06675975653bbf5d35e1f85be049600aa60152973cce5ae6ab735e9fef3564b7",
    ),
    "figure-4": (
        ["--figure", "4"],
        334103, "1b9ba50c29fd51d9035176d6b8b4e223239d558a798e59005e3ae629a942ca2f",
    ),
    "101x101-low": (
        ["--n-bar-max", "52.5", "--n-bar-steps", "101", "--mu-steps", "101"],
        1387603, "c10f56e0ba98b89869500affbd50c1943215d7bf725b895a314b377b2f87e106",
    ),
    "101x101-high": (
        ["--n-bar-min", "100000", "--n-bar-max", "100525", "--n-bar-steps", "101", "--mu-steps", "101"],
        1342892, "9f801a0084d0986e2e9a6955ce6631ab16c817c9cd2e72ea0fe2eddb1a863902",
    ),
    "n-bar-1e13": (
        HUGE_GRID,
        237729, "85d492539c7eeff8ad7e26ed22fab02f73c74b94e6a0803fae2135936d830d3c",
    ),
}  # fmt: skip


#: One command line per subcommand.
SUBCOMMAND_ARGV = [
    ["validate", "s.json"],
    ["nfg", "s.json"],
    ["channel", "s.json", "c.json"],
    ["sweep"],
    ["oracle-check"],
    ["standard-form", "s.json"],
]


class TestDispatch:
    def test_each_subcommand_parses_to_its_own_handler(self):
        parser = nfg.cli._build_parser()
        handlers = []
        for argv in SUBCOMMAND_ARGV:
            args = parser.parse_args(argv)
            assert args.command == argv[0]
            assert callable(args.run)
            handlers.append(args.run)
        assert len(set(handlers)) == len(SUBCOMMAND_ARGV)

    def test_no_per_subcommand_api(self):
        assert nfg.cli.__all__ == ["main", "read_channel", "read_state", "run", "write_state"]
        assert [name for name in vars(nfg.cli) if name.startswith("cmd_")] == []


class TestSqueezedPastDoublePrecision:
    # Product and correlated (1+1) states with a mode squeezed by r = 16,
    # stored singular at double precision.
    @pytest.fixture(params=["A", "B"])
    def files(self, request, tmp_path):
        from test_correlation import squeezed_correlated, squeezed_product

        paths = {}
        for kind, build in (("product", squeezed_product), ("correlated", squeezed_correlated)):
            paths[kind] = str(tmp_path / f"{kind}.json")
            write_state(build(16.0, request.param), paths[kind])
        return paths

    def test_product_state_reads_zero(self, capsys, files):
        assert main(["validate", files["product"]]) == 0
        assert main(["nfg", files["product"]]) == 0
        assert main(["nfg", files["product"], "--method", "bound"]) == 0
        out = capsys.readouterr().out
        assert out.count("value: 0\n") == 2

    @pytest.mark.parametrize("method", ["closed", "numeric", "bound"])
    def test_correlated_state_exits_one_with_a_clear_message(self, capsys, files, method):
        assert main(["nfg", files["correlated"], "--method", method]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: covariance matrix is singular at double precision")
        assert "Singular matrix" not in err and "not positive definite" not in err


class TestStateRoundTrip:
    def test_cm_and_mean_survive_exactly(self, tmp_path, rng):
        state = random_state(rng, 2, 1, displaced=True)
        path = tmp_path / "state.json"
        write_state(state, str(path))
        back = read_state(str(path))
        assert np.array_equal(back.cm, state.cm)
        assert np.array_equal(back.mean, state.mean)
        assert (back.n_a, back.n_b) == (2, 1)

    @pytest.mark.parametrize("count", [np.int32, np.int64])
    def test_numpy_integer_mode_counts(self, tmp_path, rng, count):
        # json cannot serialize NumPy integers; a map carries the counts over
        source = random_state(rng, 1, 1, displaced=True)
        state = GaussianState(source.cm, count(1), count(1), source.mean)
        squeezer = GaussianUnitary(np.diag([2.0, 0.5]), np.array([0.25, -1.0]))
        for case in (state, apply_gaussian_unitary(state, squeezer, "B")):
            assert type(case.n_a) is count
            path = tmp_path / "state.json"
            write_state(case, str(path))
            back = read_state(str(path))
            assert back.cm.tobytes() == case.cm.tobytes()
            assert back.mean.tobytes() == case.mean.tobytes()
            assert (back.n_a, back.n_b) == (1, 1)

    def test_mean_defaults_to_zero(self, tmp_path):
        path = write_json(tmp_path / "s.json", state_doc(np.eye(2), 1, 0))
        assert np.array_equal(read_state(path).mean, np.zeros(2))


class TestValidateCommand:
    def test_physical_state(self, capsys, tmp_path):
        path = write_json(tmp_path / "v.json", state_doc(np.eye(2), 1, 0))
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "symplectic eigenvalues: 1" in out
        assert "physical: yes" in out

    def test_unphysical_state_exits_one(self, capsys, tmp_path):
        path = write_json(tmp_path / "u.json", state_doc(0.5 * np.eye(2), 1, 0))
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "physical: no" in out
        assert "0.5" in out

    def test_overflowing_equilibration_exits_one(self, capsys, tmp_path):
        # three modes, symmetric and finite, whose Simon matrix overflows
        # when it is equilibrated: not physical, with no warning
        g = np.eye(6)
        g[0, 0] = g[1, 1] = 1e-300
        g[0, 2] = g[2, 0] = 1e300
        path = write_json(tmp_path / "o.json", state_doc(g, 2, 1))
        assert main(["validate", path]) == 1
        out, err = capsys.readouterr()
        assert "physical: no" in out
        assert err == ""

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/no/such/file.json"]) == 2
        capsys.readouterr()

    def test_wrong_cm_size_exits_two(self, tmp_path, capsys):
        doc = {"schema_version": "1", "n_a": 1, "n_b": 1, "cm": [1.0, 0.0, 0.0, 1.0]}
        path = write_json(tmp_path / "w.json", doc)
        assert main(["validate", path]) == 2
        capsys.readouterr()

    def test_json_report(self, capsys, tmp_path):
        path = write_json(tmp_path / "v.json", state_doc(np.eye(4), 1, 1))
        assert main(["validate", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["physical"] is True
        assert doc["symplectic_eigenvalues"] == pytest.approx([1.0, 1.0])


class TestNfgCommand:
    def test_closed_form_value(self, capsys, ssts_file):
        assert main(["nfg", ssts_file]) == 0
        out = capsys.readouterr().out
        assert "method: closed_form" in out
        value = float(out.split("value: ")[1].split()[0])
        assert value == pytest.approx(0.897955, abs=1e-5)

    def test_json_output(self, capsys, ssts_file):
        assert main(["nfg", ssts_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.897955, abs=1e-5)
        assert doc["method"] == "closed_form"
        assert doc["optimizer_theta"] == [pytest.approx(np.pi / 2)]
        assert doc["lower_bound_only"] is False

    def test_numeric_agrees_with_closed(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        write_state(tmsv(0.5), str(path))
        assert main(["nfg", str(path), "--json"]) == 0
        closed = json.loads(capsys.readouterr().out)["value"]
        assert main(["nfg", str(path), "--method", "numeric", "--json"]) == 0
        numeric = json.loads(capsys.readouterr().out)["value"]
        assert abs(closed - numeric) < 1e-8

    def test_bound_method(self, capsys, ssts_file):
        assert main(["nfg", ssts_file, "--method", "bound", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "bound"
        assert doc["value"] >= 0.897955 - 1e-5

    def test_product_state_gives_zero(self, capsys, tmp_path):
        path = write_json(tmp_path / "p.json", state_doc(np.diag([3.0, 3.0, 2.0, 2.0]), 1, 1))
        for method in ("closed", "numeric", "bound"):
            assert main(["nfg", path, "--method", method, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["value"] < 1e-12

    def test_wrong_partition_exits_one(self, capsys, tmp_path):
        path = write_json(tmp_path / "m.json", state_doc(np.eye(2), 1, 0))
        assert main(["nfg", path]) == 1
        capsys.readouterr()

    def test_unphysical_exits_one(self, capsys, tmp_path):
        path = write_json(tmp_path / "u.json", state_doc(0.5 * np.eye(4), 1, 1))
        assert main(["nfg", path]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "n_a, n_b", [(1.9, 1), (1, True), ("1", 1), (1.0, 1), (None, 1)], ids=repr
    )
    @pytest.mark.parametrize("command", ["nfg", "validate"])
    def test_mode_counts_must_be_json_integers(self, capsys, tmp_path, command, n_a, n_b):
        # int() would read 1.9 as 1 and true as 1, and print a value.
        cm = ssts(SstsParams(49.0, 0.9)).cm
        path = write_json(tmp_path / "n.json", state_doc(cm, n_a, n_b))
        assert main([command, path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "fields 'n_a' and 'n_b' must be integers" in err

    @pytest.mark.parametrize("entry", ["1", True], ids=repr)
    @pytest.mark.parametrize("field", ["cm", "mean"])
    @pytest.mark.parametrize("command", ["nfg", "validate"])
    def test_numbers_must_not_be_strings_or_bools(self, capsys, tmp_path, command, field, entry):
        # NumPy would read "1" and true as 1.0, and the vacuum would print.
        doc = state_doc(np.eye(4), 1, 1, [0.0] * 4)
        doc[field][0] = entry
        path = write_json(tmp_path / "s.json", doc)
        assert main([command, path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"field {field!r} is not a list of numbers" in err

    @pytest.mark.parametrize("field", ["cm", "mean"])
    @pytest.mark.parametrize("command", ["nfg", "validate"])
    def test_null_entry_is_a_parse_failure(self, capsys, tmp_path, command, field):
        # NumPy would read null as NaN, and the state would fail as
        # non-finite, exit 1, not as a malformed file.
        doc = state_doc(np.eye(4), 1, 1, [0.0] * 4)
        doc[field][0] = None
        path = write_json(tmp_path / "s.json", doc)
        assert main([command, path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"field {field!r} is not a list of numbers" in err


class TestChannelCommand:
    def write_channel(self, tmp_path, k, m, d_bar=None):
        doc = {"schema_version": "1", "k": list(np.ravel(k)), "m_noise": list(np.ravel(m))}
        if d_bar is not None:
            doc["d_bar"] = list(d_bar)
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_identity_channel(self, capsys, ssts_file, tmp_path):
        ch = self.write_channel(tmp_path, np.eye(2), np.zeros((2, 2)))
        assert main(["channel", ssts_file, ch]) == 0
        out = capsys.readouterr().out
        before = float(out.split("before: ")[1].split()[0])
        after = float(out.split("after: ")[1].split()[0])
        assert before == after
        assert "monotonic: yes" in out

    def test_erasing_channel(self, capsys, ssts_file, tmp_path):
        ch = self.write_channel(tmp_path, np.zeros((2, 2)), np.eye(2))
        assert main(["channel", ssts_file, ch]) == 0
        out = capsys.readouterr().out
        assert float(out.split("after: ")[1].split()[0]) == 0.0

    def test_attenuator_compare_closed(self, capsys, ssts_file, tmp_path):
        eta = 0.5
        ch = self.write_channel(tmp_path, np.sqrt(eta) * np.eye(2), (1 - eta) * np.eye(2))
        assert main(["channel", ssts_file, ch, "--compare-closed"]) == 0
        out = capsys.readouterr().out
        before = float(out.split("before: ")[1].split()[0])
        after = float(out.split("after: ")[1].split()[0])
        assert after <= before
        assert float(out.split("discrepancy: ")[1].split()[0]) < 1e-10

    @pytest.mark.filterwarnings("error")
    def test_compare_closed_on_a_state_past_1e200(self, capsys, tmp_path):
        # ab ~ 1e401 would overflow the closed form's arithmetic; N = 24/49.
        eye, z = np.eye(2), np.diag([1.0, -1.0])
        cm = 1e200 * np.block([[3.0 * eye, 2.0 * z], [2.0 * z, 3.0 * eye]])
        state = write_json(tmp_path / "huge.json", state_doc(cm, 1, 1))
        ch = self.write_channel(tmp_path, np.sqrt(0.5) * np.eye(2), 0.5 * np.eye(2))
        assert main(["channel", state, ch, "--compare-closed"]) == 0
        out = capsys.readouterr().out
        closed = float(out.split("closed_form_after: ")[1].split()[0])
        assert closed == pytest.approx(24.0 / 49.0, rel=1e-15)
        assert float(out.split("discrepancy: ")[1].split()[0]) < 1e-15

    @pytest.mark.filterwarnings("error")
    def test_compare_closed_on_a_large_gain_channel(self, capsys, tmp_path):
        # (det K)^2 = 1e400 would overflow the closed form's arithmetic.
        eye, z = np.eye(2), np.diag([1.0, -1.0])
        cm = np.block([[3.0 * eye, 2.0 * z], [2.0 * z, 3.0 * eye]])
        state = write_json(tmp_path / "two.json", state_doc(cm, 1, 1))
        ch = self.write_channel(tmp_path, 1e100 * eye, 2e200 * eye)
        assert main(["channel", state, ch, "--compare-closed"]) == 0
        out = capsys.readouterr().out
        after = float(out.split("after: ")[1].split()[0])
        closed = float(out.split("closed_form_after: ")[1].split()[0])
        assert after == pytest.approx(0.284, abs=5e-4)
        assert closed == pytest.approx(after, rel=1e-12)

    def test_invalid_channel_exits_one(self, capsys, ssts_file, tmp_path):
        ch = self.write_channel(tmp_path, 2.0 * np.eye(2), 0.1 * np.eye(2))
        assert main(["channel", ssts_file, ch]) == 1
        capsys.readouterr()

    def test_malformed_channel_exits_two(self, capsys, ssts_file, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text('{"schema_version": "1", "k": [1, 0, 0]}')
        assert main(["channel", ssts_file, str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("entry", ["1", True], ids=repr)
    @pytest.mark.parametrize("field", ["k", "m_noise", "d_bar"])
    def test_numbers_must_not_be_strings_or_bools(self, capsys, ssts_file, tmp_path, field, entry):
        # NumPy would read "1" and true as 1.0, and the channel would run.
        path = self.write_channel(tmp_path, np.eye(2), np.zeros((2, 2)), [0.0, 0.0])
        doc = json.loads(Path(path).read_text())
        doc[field][0] = entry
        assert main(["channel", ssts_file, write_json(tmp_path / "ch.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"field {field!r} is not a list of numbers" in err

    @pytest.mark.parametrize("field", ["k", "m_noise", "d_bar"])
    def test_null_entry_is_a_parse_failure(self, capsys, ssts_file, tmp_path, field):
        # NumPy would read null as NaN, and the channel would fail as
        # non-finite, exit 1, not as a malformed file.
        path = self.write_channel(tmp_path, np.eye(2), np.zeros((2, 2)), [0.0, 0.0])
        doc = json.loads(Path(path).read_text())
        doc[field][0] = None
        assert main(["channel", ssts_file, write_json(tmp_path / "ch.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"field {field!r} is not a list of numbers" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_k_past_the_limit_exits_one_before_any_product(self, capsys, ssts_file, tmp_path, scale):
        # K Delta K^T would overflow; the channel is refused with the limit
        # named and no RuntimeWarning.
        ch = self.write_channel(tmp_path, scale * np.eye(2), np.eye(2))
        assert main(["channel", ssts_file, ch]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "at most 1e+150" in err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


class TestReadmeExamples:
    def test_state_and_channel_files_run_every_file_command(self, capsys, tmp_path):
        state_text, channel_text = readme_blocks("json")
        state = tmp_path / "state.json"
        channel = tmp_path / "channel.json"
        state.write_text(state_text)
        channel.write_text(channel_text)
        outputs = {}
        for argv in (
            ["validate", str(state)],
            ["nfg", str(state)],
            ["channel", str(state), str(channel), "--compare-closed"],
            ["standard-form", str(state)],
        ):
            assert main(argv) == 0, argv
            outputs[argv[0]], err = capsys.readouterr()
            assert err == "", argv
        assert "physical: yes" in outputs["validate"]
        assert "monotonic: yes" in outputs["channel"]
        assert float(outputs["channel"].split("discrepancy: ")[1]) < 1e-12

    def test_quick_start_prints_the_values_it_quotes(self, capsys):
        (code,) = readme_blocks("python")
        exec(compile(code, str(README), "exec"), {})
        tmsv_value, family_value, product_value = capsys.readouterr().out.split()
        assert tmsv_value.startswith("0.98258198128931")
        assert float(family_value) == pytest.approx(float(tmsv_value), rel=1e-15)
        assert product_value == "0.0"


class TestSweepCommand:
    def test_single_cell_matches_library(self, capsys):
        args = [
            "sweep", "--n-bar-min", "49", "--n-bar-max", "49", "--n-bar-steps", "1",
            "--mu-min", "0.9", "--mu-max", "0.9", "--mu-steps", "1",
        ]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n_bar,mu,nfg,dg,q,nfg_minus_dg,nfg_minus_q"
        fields = [float(x) for x in lines[1].split(",")]
        p = SstsParams(49.0, 0.9)
        assert fields[2] == nfg_ssts(p)  # 17 significant digits round-trip
        assert fields[3] == dg_ssts(p)
        assert fields[4] == q_ssts(p)

    def test_figure_one_grid(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["sweep", "--figure", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 51 * 51
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert first[:2] == [0.0, 0.0]
        assert last[:2] == [50.0, 1.0]

    def test_figure_two_grid_bounds(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["sweep", "--figure", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert [float(x) for x in lines[1].split(",")][0] == 100000.0
        assert [float(x) for x in lines[-1].split(",")][0] == 100500.0

    def test_byte_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--figure", "3", "--out", str(out1)]) == 0
        assert main(["sweep", "--figure", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unwritable_path_exits_two(self, capsys):
        assert main(["sweep", "--figure", "1", "--out", "/no/such/dir/x.csv"]) == 2
        capsys.readouterr()

    def test_degenerate_grid_exits_two(self, capsys):
        assert main(["sweep", "--n-bar-min", "5", "--n-bar-max", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--n-bar-min", "7"), ("--n-bar-max", "50"), ("--n-bar-steps", "51"),
            ("--mu-min", "0"), ("--mu-max", "1"), ("--mu-steps", "3"),
        ],
    )  # fmt: skip
    def test_grid_option_with_figure_exits_two_without_output(
        self, capsys, tmp_path, flag, value
    ):
        # even a value equal to the figure's own is refused, not dropped
        out = tmp_path / "fig.csv"
        assert main(["sweep", "--figure", "1", flag, value, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} cannot be given with --figure\n"
        assert captured.out == ""
        assert not out.exists()

    def test_grid_options_default_to_figure_one(self, capsys):
        assert main(["sweep", "--figure", "1"]) == 0
        figure = capsys.readouterr().out
        assert main(["sweep"]) == 0
        assert capsys.readouterr().out == figure
        assert main(["sweep", "--n-bar-steps", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 3 * 51
        assert [line.split(",", 1)[0] for line in lines[1::51]] == ["0", "25", "50"]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--n-bar-min", "-1", "--n-bar-max", "1"], "n_bar must be finite and >= 0, got -1.0"),
            (["--mu-max", "1.5"], "mu must lie in [0, 1], got 1.02"),
            (["--mu-min", "-0.5", "--mu-max", "0.5"], "mu must lie in [0, 1], got -0.5"),
        ],
    )
    def test_bad_grid_point_exits_one_without_output(self, capsys, tmp_path, args, message):
        out = tmp_path / "bad.csv"
        assert main(["sweep", *args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--n-bar-max", "1e151"], "n_bar must be at most 1e+150, got 1.2e+150"),
            (
                ["--n-bar-max", "1.7976931348623157e308"],
                "n_bar must be at most 1e+150, got 3.595386269724631e+306",
            ),
            # a bad mu puts the first bad point of the grid in its first row
            (["--n-bar-max", "1e200", "--mu-max", "1.5"], "mu must lie in [0, 1], got 1.02"),
            (
                ["--n-bar-min", "1e151", "--n-bar-max", "1e152", "--mu-max", "1.5"],
                "n_bar must be at most 1e+150, got 1e+151",
            ),
        ],
    )
    def test_n_bar_past_ceiling_exits_one_without_output(self, capsys, tmp_path, args, message):
        out = tmp_path / "bad.csv"
        assert main(["sweep", *args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("n_steps, mu_steps", [(1, 7), (7, 1), (3, 5), (5, 3)])
    def test_layout_matches_library_rows(self, capsys, tmp_path, n_steps, mu_steps):
        grid = SweepGrid(0.0, 2.5, n_steps, 0.25, 1.0, mu_steps)
        args = [
            "sweep", "--n-bar-min", "0", "--n-bar-max", "2.5", "--n-bar-steps", str(n_steps),
            "--mu-min", "0.25", "--mu-max", "1", "--mu-steps", str(mu_steps),
        ]  # fmt: skip
        out = tmp_path / "sweep.csv"
        assert main([*args, "--out", str(out)]) == 0
        rows = []
        for n_bar in np.linspace(grid.n_bar_min, grid.n_bar_max, n_steps).tolist():
            for mu in np.linspace(grid.mu_min, grid.mu_max, mu_steps).tolist():
                p = SstsParams(n_bar, mu)
                nfg, dg, q = nfg_ssts(p), dg_ssts(p), q_ssts(p)
                rows.append(",".join(map(_g, (n_bar, mu, nfg, dg, q, nfg - dg, nfg - q))))
        assert out.read_text() == "\n".join([CSV_HEADER, *rows]) + "\n"
        for to_stdout in ([], ["--out", "-"]):
            capsys.readouterr()
            assert main([*args, *to_stdout]) == 0
            assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize(
        "args, size, sha256", list(GOLDEN_SWEEPS.values()), ids=list(GOLDEN_SWEEPS)
    )
    def test_csv_bytes_are_pinned(self, tmp_path, args, size, sha256):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *args, "--out", str(out)]) == 0
        data = out.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha256)

    def test_every_row_up_to_n_bar_1e13_matches_point_functions(self, tmp_path):
        out = tmp_path / "huge.csv"
        assert main(["sweep", *HUGE_GRID, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 57 * 33
        assert float(rows[-1].split(",")[0]) == 1e13
        for row in rows:
            n_bar, mu, nfg, dg, q, nfg_minus_dg, nfg_minus_q = map(float, row.split(","))
            p = SstsParams(n_bar, mu)
            assert (nfg, dg, q) == (nfg_ssts(p), dg_ssts(p), q_ssts(p))
            assert (nfg_minus_dg, nfg_minus_q) == (nfg - dg, nfg - q)


class TestOracleCheckCommand:
    def test_fast_families_pass(self, capsys):
        assert main(["oracle-check", "--families", "thermal,coherent"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out
        assert "thermal" in out and "coherent" in out

    def test_unknown_family_exits_two(self, capsys):
        assert main(["oracle-check", "--families", "bogus"]) == 2
        capsys.readouterr()


class TestStandardFormCommand:
    def test_family_state(self, capsys, ssts_file):
        assert main(["standard-form", ssts_file]) == 0
        out = capsys.readouterr().out
        a = float(out.split("a: ")[1].split()[0])
        c = float(out.split("c: ")[1].split()[0])
        d = float(out.split("d: ")[1].split()[0])
        assert a == pytest.approx(99.0, rel=1e-12)
        assert c == pytest.approx(2 * 0.9 * np.sqrt(49 * 50), rel=1e-12)
        assert d == pytest.approx(-c, rel=1e-12)

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        write_state(tmsv(0.3), str(path))
        assert main(["standard-form", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["a"] == pytest.approx(np.cosh(0.6), rel=1e-12)
        assert doc["c"] == pytest.approx(np.sinh(0.6), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_rotated_state_past_1e200(self, capsys, tmp_path):
        # det A ~ 1e400 would overflow without the power-of-two scaling; the
        # state is scaled by 2^664 ~ 1e200, so the parameters scale exactly.
        cm = np.array(
            [
                [3.2, 2.05, -0.36, -1.36],
                [2.05, 2.57, -0.95, -0.79],
                [-0.36, -0.95, 2.32, 0.79],
                [-1.36, -0.79, 0.79, 3.38],
            ]
        )
        path = write_json(tmp_path / "huge.json", state_doc(2.0**664 * cm, 1, 1))
        assert main(["standard-form", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        p, _, _ = standard_form(GaussianState(cm, 1, 1))
        assert doc == {x: 2.0**664 * getattr(p, x) for x in "abcd"}


class TestArgumentErrors:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_flag_exits_two(self, capsys):
        assert main(["nfg", "x.json", "--method", "psychic"]) == 2
        capsys.readouterr()
