import dataclasses
import hashlib
import json

import numpy as np
import pytest

import nfg.cli
from nfg import SstsParams, SweepGrid, dg_ssts, nfg_ssts, q_ssts, ssts, sweep, tmsv
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
GOLDEN_SWEEPS = {
    "figure-1": (
        ["--figure", "1"],
        314299, "06675975653bbf5d35e1f85be049600aa60152973cce5ae6ab735e9fef3564b7",
    ),
    "figure-2": (
        ["--figure", "2"],
        333440, "e2dbe83f203e49aad16831c7ffb9ec1336a051ff26132598e28214f98b8c12f7",
    ),
    "figure-3": (
        ["--figure", "3"],
        314299, "06675975653bbf5d35e1f85be049600aa60152973cce5ae6ab735e9fef3564b7",
    ),
    "figure-4": (
        ["--figure", "4"],
        333440, "e2dbe83f203e49aad16831c7ffb9ec1336a051ff26132598e28214f98b8c12f7",
    ),
    "101x101-low": (
        ["--n-bar-max", "52.5", "--n-bar-steps", "101", "--mu-steps", "101"],
        1387603, "c10f56e0ba98b89869500affbd50c1943215d7bf725b895a314b377b2f87e106",
    ),
    "101x101-high": (
        ["--n-bar-min", "100000", "--n-bar-max", "100525", "--n-bar-steps", "101", "--mu-steps", "101"],
        1341513, "6989413558fb7ea76643e42ede20916d0a68e73fc78ae41f40f1580fafb55f49",
    ),
    "n-bar-1e13": (
        HUGE_GRID,
        235709, "1610de4518758d0f8c9afb34fb7ad35bfc8d1c322e0d745712298e9e1689aa3e",
    ),
}  # fmt: skip


#: State files behind `PINNED_OUTPUTS`: a family state and generic states
#: whose entries are rounded to two decimals.
PINNED_STATES = {
    "ssts": (1, 1, ssts(SstsParams(49.0, 0.9)).cm),
    "random-1+1": (1, 1, [
        [3.2, 2.05, -0.36, -1.36], [2.05, 2.57, -0.95, -0.79],
        [-0.36, -0.95, 2.32, 0.79], [-1.36, -0.79, 0.79, 3.38],
    ]),
    "random-1+2": (1, 2, [
        [2.45, 1.77, -0.13, 1.45, 0.67, 0.74], [1.77, 2.75, 0.37, 0.62, 0.83, 0.09],
        [-0.13, 0.37, 1.31, 0.25, -0.72, -0.68], [1.45, 0.62, 0.25, 4.89, -1.33, 0.67],
        [0.67, 0.83, -0.72, -1.33, 3.32, 0.99], [0.74, 0.09, -0.68, 0.67, 0.99, 1.63],
    ]),
    "random-2+2": (2, 2, [
        [2.14, 1.66, 2.19, -0.92, -0.05, 0.8, 0.78, 0.2],
        [1.66, 6.79, -2.51, -3.37, -1.54, 1.97, 1.12, 1.13],
        [2.19, -2.51, 10.21, 1.79, 2.5, 0.89, 2.24, -2.42],
        [-0.92, -3.37, 1.79, 2.75, 1.39, -2.35, -0.67, -1.51],
        [-0.05, -1.54, 2.5, 1.39, 2.17, -1.19, -0.36, -0.55],
        [0.8, 1.97, 0.89, -2.35, -1.19, 5.81, 1.01, 1.17],
        [0.78, 1.12, 2.24, -0.67, -0.36, 1.01, 3.19, -1.5],
        [0.2, 1.13, -2.42, -1.51, -0.55, 1.17, -1.5, 3.43],
    ]),
}  # fmt: skip

#: Standard output of `nfg nfg --method bound`, `nfg validate` and
#: `nfg standard-form` on `PINNED_STATES`, recorded while the bound still
#: factored its own matrices.
PINNED_OUTPUTS = {
    ("ssts", "nfg"): "value: 0.96386858821118782\nmethod: bound\n",
    ("ssts", "validate"): (
        "symplectic eigenvalues: 43.162483709814467 43.162483709814438\n"
        "symmetric: yes\npositive definite: yes\nphysical: yes\n"
    ),
    ("ssts", "standard-form"): (
        "a: 98.999999999999986\nb: 98.999999999999986\n"
        "c: 89.095454429504969\nd: -89.095454429504969\n"
    ),
    ("random-1+1", "nfg"): "value: 0.34099955138084659\nmethod: bound\n",
    ("random-1+1", "validate"): (
        "symplectic eigenvalues: 2.4648454856626851 1.7743553003297543\n"
        "symmetric: yes\npositive definite: yes\nphysical: yes\n"
    ),
    ("random-1+1", "standard-form"): (
        "a: 2.0053677966896744\nb: 2.6865405264019375\n"
        "c: 1.0560323341042255\nd: -0.95413745153427676\n"
    ),
    ("random-1+2", "nfg"): "value: 0.51328354156933786\nmethod: bound\n",
    ("random-1+2", "validate"): (
        "symplectic eigenvalues: 2.0835801302199077 1.6253618640231786 1.5102293375285374\n"
        "symmetric: yes\npositive definite: yes\nphysical: yes\n"
    ),
    ("random-2+2", "nfg"): "value: 0.92591856185422938\nmethod: bound\n",
    ("random-2+2", "validate"): (
        "symplectic eigenvalues: 2.284886183228652 2.1381634285464184 "
        "1.9110441504119762 1.8239414841747574\n"
        "symmetric: yes\npositive definite: yes\nphysical: yes\n"
    ),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize(
        "name, command", list(PINNED_OUTPUTS), ids=["-".join(k) for k in PINNED_OUTPUTS]
    )
    def test_stdout_is_pinned(self, capsys, tmp_path, name, command):
        n_a, n_b, cm = PINNED_STATES[name]
        path = write_json(tmp_path / f"{name}.json", state_doc(cm, n_a, n_b))
        options = ["--method", "bound"] if command == "nfg" else []
        assert main([command, path, *options]) == 0
        assert capsys.readouterr().out == PINNED_OUTPUTS[name, command]


#: `--json` output of `nfg validate`, `nfg nfg` and `nfg standard-form` on
#: `PINNED_STATES`, parsed, recorded when each subcommand was a public
#: function with its own defaults.
PINNED_JSON = {
    ("ssts", "validate"): {
        "symmetric": True, "symplectic_eigenvalues": [43.16248370981447, 43.16248370981444],
        "positive_definite": True, "physical": True,
    },
    ("ssts", "nfg"): {
        "value": 0.8979552469135804, "method": "closed_form",
        "optimizer_theta": [1.5707963267948966], "lower_bound_only": False,
    },
    ("ssts", "nfg", "--method", "numeric"): {
        "value": 0.8979552469135804, "method": "numeric",
        "optimizer_theta": [1.5707963267948966], "lower_bound_only": False,
    },
    ("ssts", "nfg", "--method", "bound"): {"value": 0.9638685882111878, "method": "bound"},
    ("ssts", "standard-form"): {
        "a": 98.99999999999999, "b": 98.99999999999999,
        "c": 89.09545442950497, "d": -89.09545442950497,
    },
    ("random-1+1", "validate"): {
        "symmetric": True, "symplectic_eigenvalues": [2.464845485662685, 1.7743553003297543],
        "positive_definite": True, "physical": True,
    },
    ("random-1+1", "nfg"): {
        "value": 0.19708077100178328, "method": "closed_form",
        "optimizer_theta": [1.5707963267948966], "lower_bound_only": False,
    },
    ("random-1+1", "nfg", "--method", "bound"): {"value": 0.3409995513808466, "method": "bound"},
    ("random-1+1", "standard-form"): {
        "a": 2.0053677966896744, "b": 2.6865405264019375,
        "c": 1.0560323341042255, "d": -0.9541374515342768,
    },
    ("random-1+2", "validate"): {
        "symmetric": True,
        "symplectic_eigenvalues": [2.0835801302199077, 1.6253618640231786, 1.5102293375285374],
        "positive_definite": True, "physical": True,
    },
    ("random-1+2", "nfg", "--method", "numeric"): {
        "value": 0.3254507697214608, "method": "numeric",
        "optimizer_theta": [1.5707963267948966], "lower_bound_only": False,
    },
    ("random-2+2", "nfg", "--method", "numeric"): {
        "value": 0.813002830171009, "method": "numeric",
        "optimizer_theta": [1.5707963267948966, 1.5707963267948966], "lower_bound_only": False,
    },
    ("random-2+2", "nfg", "--method", "bound"): {"value": 0.9259185618542294, "method": "bound"},
}  # fmt: skip


class TestPinnedJson:
    @pytest.mark.parametrize("key", list(PINNED_JSON), ids=[" ".join(k) for k in PINNED_JSON])
    def test_json_is_pinned(self, capsys, tmp_path, key):
        name, command, *options = key
        n_a, n_b, cm = PINNED_STATES[name]
        path = write_json(tmp_path / f"{name}.json", state_doc(cm, n_a, n_b))
        assert main([command, path, *options, "--json"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert json.loads(out) == PINNED_JSON[key]


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


#: Channel files behind `PINNED_CHANNEL_OUTPUTS`, by the mode count of B: a
#: one-mode attenuation with noise, and a 50:50 beam splitter between the two
#: B modes with loss and noise.
PINNED_CHANNELS = {
    1: (0.5 * np.eye(2), 0.8 * np.eye(2)),
    2: (0.5 * np.array([[1, 0, 1, 0], [0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, 1]]), 0.6 * np.eye(4)),
}

#: Standard output of `nfg channel` on `PINNED_STATES`; the (1+1) outputs
#: were recorded while `check_monotonicity` went through `nfg_two_mode`, the
#: others match 50-digit determinants of the stored matrices to 1e-15.
PINNED_CHANNEL_OUTPUTS = {
    "ssts": (
        "before: 0.89795524691358042\nafter: 0.87432393845740408\n"
        "monotonic: yes\nslack: 0.023631308456176336\n"
    ),
    "random-1+1": (
        "before: 0.19708077100178328\nafter: 0.08624719611916766\n"
        "monotonic: yes\nslack: 0.11083357488261562\n"
    ),
    "random-1+2": (
        "before: 0.32545076972146081\nafter: 0.21264904756913805\n"
        "monotonic: yes\nslack: 0.11280172215232276\n"
    ),
    "random-2+2": (
        "before: 0.81300283017100905\nafter: 0.61465574823098079\n"
        "monotonic: yes\nslack: 0.19834708194002826\n"
    ),
}

#: What `nfg channel --compare-closed` adds for the (1+1) states.
PINNED_CLOSED_OUTPUTS = {
    "ssts": "closed_form_after: 0.87432393845740408\ndiscrepancy: 0\n",
    "random-1+1": (
        "closed_form_after: 0.086247196119167632\ndiscrepancy: 2.7755575615628914e-17\n"
    ),
}


class TestPinnedChannelOutputs:
    def write_files(self, tmp_path, name):
        n_a, n_b, cm = PINNED_STATES[name]
        k, m = PINNED_CHANNELS[n_b]
        doc = {"schema_version": "1", "k": list(np.ravel(k)), "m_noise": list(np.ravel(m))}
        state = write_json(tmp_path / f"{name}.json", state_doc(cm, n_a, n_b))
        return state, write_json(tmp_path / "ch.json", doc)

    @pytest.mark.parametrize("name", list(PINNED_CHANNEL_OUTPUTS))
    def test_stdout_is_pinned(self, capsys, tmp_path, name):
        state, ch = self.write_files(tmp_path, name)
        assert main(["channel", state, ch]) == 0
        assert capsys.readouterr().out == PINNED_CHANNEL_OUTPUTS[name]

    @pytest.mark.parametrize("name", list(PINNED_CLOSED_OUTPUTS))
    def test_compare_closed_stdout_is_pinned(self, capsys, tmp_path, name):
        state, ch = self.write_files(tmp_path, name)
        assert main(["channel", state, ch, "--compare-closed"]) == 0
        expected = PINNED_CHANNEL_OUTPUTS[name] + PINNED_CLOSED_OUTPUTS[name]
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("name", ["random-1+2", "random-2+2"])
    def test_compare_closed_needs_a_two_mode_state(self, capsys, tmp_path, name):
        state, ch = self.write_files(tmp_path, name)
        assert main(["channel", state, ch, "--compare-closed"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: standard form is defined for (1+1)-mode states\n"


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

    def test_invalid_channel_exits_one(self, capsys, ssts_file, tmp_path):
        ch = self.write_channel(tmp_path, 2.0 * np.eye(2), 0.1 * np.eye(2))
        assert main(["channel", ssts_file, ch]) == 1
        capsys.readouterr()

    def test_malformed_channel_exits_two(self, capsys, ssts_file, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text('{"schema_version": "1", "k": [1, 0, 0]}')
        assert main(["channel", ssts_file, str(path)]) == 2
        capsys.readouterr()


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
        rows = [",".join(_g(x) for x in dataclasses.astuple(row)) for row in sweep(grid)]
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


#: Byte length and SHA-256 of the default `nfg oracle-check` stdout, with the
#: Fock oracle's log k! from a running sum of log j.
GOLDEN_ORACLE = (1395, "a2664018c2decec9af6debcd8021bedad9ee9a92a56471024de88f3645754a21")


class TestOracleCheckCommand:
    def test_default_output_is_pinned(self, capsys):
        assert main(["oracle-check"]) == 0
        data = capsys.readouterr().out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN_ORACLE

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


class TestArgumentErrors:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_flag_exits_two(self, capsys):
        assert main(["nfg", "x.json", "--method", "psychic"]) == 2
        capsys.readouterr()
