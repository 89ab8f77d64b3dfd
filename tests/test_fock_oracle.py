import hashlib
import math

import mpmath
import numpy as np
import pytest

from nfg import GaussianState, fock, nfg_two_mode, overlap, tmsv
from nfg.fock import (
    FockDensityMatrix,
    _log_factorials,
    coherent_dm,
    oracle_rows,
    overlap_fock,
    squeezed_vacuum_dm,
    thermal_dm,
    two_mode_squeezed_dm,
)

from helpers import (
    dense,
    dense_overlap,
    literal_matrix,
    nfg_theta_objective,
    reference_adaptive_dm,
)


#: Cutoffs at which each builder's zero parameter must give the vacuum exactly:
#: the smallest allowed, the adaptive start, and one odd size.
ZERO_PARAMETER_CUTOFFS = (2, 20, 33)


def vacuum_projector(cutoff: int) -> np.ndarray:
    m = np.zeros((cutoff, cutoff))
    m[0, 0] = 1.0
    return m


class TestLogFactorials:
    def test_matches_exact_factorials(self):
        # The running sum of log j stays within 1e-14 relative of log k! up to
        # twice the largest cutoff, the squeezed builder's reach.
        table = _log_factorials(1100)
        assert len(table) == 1100
        assert table[0] == table[1] == 0.0
        for k in range(2, 1100):
            exact = math.log(math.factorial(k))
            assert abs(table[k] - exact) <= 1e-14 * exact, k


class TestThermal:
    def test_zero_temperature_is_vacuum(self):
        for cutoff in ZERO_PARAMETER_CUTOFFS:
            dm = thermal_dm(0.0, cutoff=cutoff)
            assert np.array_equal(dense(dm), vacuum_projector(cutoff))
            assert dm.trace_deficit == 0.0

    def test_geometric_weights(self):
        dm = thermal_dm(1.0, cutoff=60)
        k = np.arange(60)
        assert dm.entries == pytest.approx(0.5**(k + 1.0))

    def test_purity_of_unit_occupancy(self):
        dm = thermal_dm(1.0, cutoff=60)
        assert dm.trace_deficit < 1e-10
        assert overlap_fock(dm, dm) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_insufficient_cutoff_rejected(self):
        with pytest.raises(ValueError):
            thermal_dm(1.0, cutoff=5)
        with pytest.raises(ValueError):
            thermal_dm(1.0, cutoff=1)

    def test_adaptive_cutoff_meets_guard(self):
        dm = thermal_dm(3.0)
        assert dm.trace_deficit < 1e-10
        assert dm.entries.shape == (dm.cutoff,)

    def test_ceiling_reported(self):
        with pytest.raises(ValueError):
            thermal_dm(1e4)  # would need a basis far beyond the ceiling


class TestCoherent:
    def test_zero_amplitude_is_vacuum(self):
        for cutoff in ZERO_PARAMETER_CUTOFFS:
            dm = coherent_dm(0.0, cutoff=cutoff)
            assert np.array_equal(dense(dm), vacuum_projector(cutoff).astype(complex))
            assert dm.trace_deficit == 0.0

    def test_overlap_with_vacuum(self):
        vac = coherent_dm(0.0, cutoff=40)
        coh = coherent_dm(1.0, cutoff=40)
        assert overlap_fock(vac, coh) == pytest.approx(np.exp(-1.0), rel=1e-10)

    def test_purity_one(self):
        dm = coherent_dm(1.0 - 0.5j)
        assert overlap_fock(dm, dm) == pytest.approx(1.0, abs=1e-9)

    def test_complex_amplitude_phases(self):
        dm = coherent_dm(1j, cutoff=30)
        # <1|rho|0> = alpha e^{-|alpha|^2}, pure imaginary for alpha = i
        assert dense(dm)[1, 0] == pytest.approx(1j * np.exp(-1.0), rel=1e-12)


class TestSqueezed:
    def test_zero_squeezing_is_vacuum(self):
        for cutoff in ZERO_PARAMETER_CUTOFFS:
            dm = squeezed_vacuum_dm(0.0, cutoff=cutoff)
            assert np.array_equal(dense(dm), vacuum_projector(cutoff))
            assert dm.trace_deficit == 0.0

    def test_odd_levels_empty(self):
        dm = squeezed_vacuum_dm(0.8)
        assert np.all(dm.entries[1::2] == 0.0)

    def test_purity_one(self):
        dm = squeezed_vacuum_dm(1.0)
        assert dm.trace_deficit < 1e-10
        assert overlap_fock(dm, dm) == pytest.approx(1.0, abs=1e-9)

    def test_large_cutoff_stays_finite(self):
        dm = squeezed_vacuum_dm(1.0, cutoff=400)
        assert np.all(np.isfinite(dm.entries))


class TestTwoModeSqueezed:
    def test_zero_squeezing_is_vacuum(self):
        for cutoff in (10, *ZERO_PARAMETER_CUTOFFS):
            dm = two_mode_squeezed_dm(0.0, cutoff=cutoff)
            assert np.array_equal(dense(dm), vacuum_projector(cutoff**2))
            assert dm.trace_deficit == 0.0

    def test_overlap_with_double_vacuum(self):
        r = 0.5
        vac = two_mode_squeezed_dm(0.0, cutoff=20)
        sq = two_mode_squeezed_dm(r, cutoff=20)
        assert overlap_fock(vac, sq) == pytest.approx(1.0 / np.cosh(r) ** 2, rel=1e-10)

    def test_reduced_state_is_thermal(self):
        r = 0.5
        dm = two_mode_squeezed_dm(r, cutoff=30)
        reduced = np.einsum("ikjk->ij", dense(dm).reshape(30, 30, 30, 30))
        thermal = thermal_dm(np.sinh(r) ** 2, cutoff=30)
        assert np.abs(reduced - dense(thermal)).max() < 1e-12

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            two_mode_squeezed_dm(-1.0)

    def test_strong_squeezing_converges_under_the_ceiling(self):
        # r = 2 needs more than 160 pairs; the search stops at 320.
        dm = two_mode_squeezed_dm(2.0)
        assert dm.cutoff == 320
        assert 0.0 < dm.trace_deficit <= 1e-10
        assert overlap_fock(dm, dm) == pytest.approx(1.0, abs=2e-10)


def one_mode_states(cutoff: int) -> list[FockDensityMatrix]:
    """Diagonal (thermal) and pure (coherent, complex and real, and squeezed)
    one-mode states, with a vacuum of each family."""
    return [
        thermal_dm(0.0, cutoff),
        thermal_dm(0.5, cutoff),
        coherent_dm(0.0, cutoff),
        coherent_dm(0.7 + 0.2j, cutoff),
        coherent_dm(-0.4, cutoff),
        squeezed_vacuum_dm(0.0, cutoff),
        squeezed_vacuum_dm(0.3, cutoff),
        squeezed_vacuum_dm(-0.5, cutoff),
    ]


def two_mode_states(cutoff: int) -> list[FockDensityMatrix]:
    """Pure two-mode squeezed states, and a hand-built diagonal state on the
    same pairs |kk>: the dephased two-mode squeezed vacuum."""
    dms = [two_mode_squeezed_dm(r, cutoff) for r in (0.0, 0.1, 0.3)]
    psi = two_mode_squeezed_dm(0.2, cutoff).entries
    dms.append(FockDensityMatrix(cutoff, psi * psi, 0.0, pure=False, two_mode=True))
    return dms


class TestExpansionStorage:
    @pytest.mark.parametrize(
        "states, cutoff",
        [(one_mode_states, 40), (one_mode_states, 80), (two_mode_states, 10), (two_mode_states, 24)],
        ids=["one-40", "one-80", "two-10", "two-24"],
    )
    def test_overlap_matches_dense_contraction(self, states, cutoff):
        # Every pair of kinds: pure and pure, pure and diagonal, diagonal and
        # diagonal, within and across families.
        dms = states(cutoff)
        assert {dm.pure for dm in dms} == {True, False}
        for a in dms:
            for b in dms:
                assert abs(overlap_fock(a, b) - dense_overlap(a, b)) <= 1e-15

    @pytest.mark.parametrize("r, cutoff", [(0.3, 10), (0.3, 24), (1.0, None)])
    def test_two_mode_state_holds_cutoff_entries(self, r, cutoff):
        dm = two_mode_squeezed_dm(r, cutoff)
        assert dm.pure and dm.two_mode
        assert dm.entries.shape == (dm.cutoff,)
        assert dm.entries.nbytes == dm.cutoff * 8

    @pytest.mark.parametrize("cutoff", [10, 24])
    def test_one_mode_against_two_mode_rejected(self, cutoff):
        two = two_mode_squeezed_dm(0.3, cutoff)
        one = FockDensityMatrix(cutoff, two.entries, two.trace_deficit, pure=True)
        for a, b in ((one, two), (two, one), (thermal_dm(0.1, cutoff), two)):
            with pytest.raises(ValueError, match="one-mode state with a two-mode one"):
                overlap_fock(a, b)

    def test_cutoff_mismatch_rejected(self):
        with pytest.raises(ValueError):
            overlap_fock(two_mode_squeezed_dm(0.3, 10), two_mode_squeezed_dm(0.3, 24))


class TestMeasureInFockBasis:
    """1 - tr(rho rho_S)^2 / (tr rho^2 tr rho_S^2) for a TMSV and its copy
    with mode A rotated by exp(-i theta n_A), formed in the number basis."""

    @staticmethod
    def fock_objective(r: float, theta: float) -> float:
        rho = two_mode_squeezed_dm(r)
        # exp(-i theta n_A) |kk> = exp(-i theta k) |kk>: still on the pairs.
        rotated = rho.entries * np.exp(-1j * theta * np.arange(rho.cutoff))
        rho_s = FockDensityMatrix(rho.cutoff, rotated, rho.trace_deficit, pure=True, two_mode=True)
        cross = overlap_fock(rho, rho_s)
        return 1.0 - cross**2 / (overlap_fock(rho, rho) * overlap_fock(rho_s, rho_s))

    @pytest.mark.parametrize("theta", [0.3, np.pi / 4, np.pi / 2])
    @pytest.mark.parametrize("r", [0.3, 0.5, 1.0])
    def test_matches_theta_objective(self, r, theta):
        expected = nfg_theta_objective(tmsv(r), theta)
        assert self.fock_objective(r, theta) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("r", [0.3, 0.5, 1.0])
    def test_matches_measure_at_right_angle(self, r):
        expected = nfg_two_mode(tmsv(r)).value
        assert self.fock_objective(r, np.pi / 2) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("r", [0.3, 0.5, 1.0])
    def test_zero_angle_gives_zero(self, r):
        assert abs(self.fock_objective(r, 0.0) - nfg_theta_objective(tmsv(r), 0.0)) <= 1e-13


class TestMatrixInvariants:
    @pytest.mark.parametrize(
        "dm",
        [
            thermal_dm(1.5, cutoff=80),
            coherent_dm(0.7 + 0.2j, cutoff=30),
            squeezed_vacuum_dm(0.6, cutoff=60),
            two_mode_squeezed_dm(0.4, cutoff=24),
        ],
        ids=["thermal", "coherent", "squeezed", "tmsv"],
    )
    def test_hermitian_positive_unit_trace_frozen(self, dm):
        matrix = dense(dm)
        assert np.abs(matrix - matrix.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(matrix).min() > -1e-10
        assert dm.trace_deficit >= 0.0
        assert dm.trace_deficit < 1e-10
        assert not dm.entries.flags.writeable


class TestOverlapFock:
    def test_identical_pure_states(self):
        dm = coherent_dm(0.5, cutoff=30)
        assert overlap_fock(dm, dm) == pytest.approx(1.0, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            overlap_fock(thermal_dm(1.0, cutoff=60), thermal_dm(1.0, cutoff=80))


class TestAgainstPhaseSpaceFormula:
    def test_all_families_agree(self):
        rows = oracle_rows()
        assert {r.family for r in rows} == {"thermal", "coherent", "squeezed", "tmsv"}
        for row in rows:
            assert row.trace_deficit < 1e-10
            assert row.rel_err < 1e-6

    def test_builds_each_state_once(self, monkeypatch):
        built = []
        post_init = GaussianState.__post_init__

        def counting(state):
            built.append(state)
            post_init(state)

        monkeypatch.setattr(GaussianState, "__post_init__", counting)
        per_family = {}
        for family in ("thermal", "coherent", "squeezed", "tmsv"):
            built.clear()
            oracle_rows([family])
            per_family[family] = len(built)
        # one state per distinct parameter of the family's pairs
        assert per_family == {"thermal": 5, "coherent": 5, "squeezed": 4, "tmsv": 3}
        built.clear()
        oracle_rows()
        assert len(built) == 17

    def test_formula_values_match_50_digit_references(self):
        # tr(rho sigma) = det(M)^{-1/2} exp(-delta^T M^{-1} delta / 2), M the
        # mean of the two stored covariance matrices, in 50 digits.
        for family, pairs in fock._CASES.items():
            build_state = fock._BUILDERS[family][1]
            for row, (x1, x2) in zip(oracle_rows([family]), pairs):
                rho, sigma = build_state(x1), build_state(x2)
                with mpmath.workdps(50):
                    m = (mpmath.matrix(rho.cm.tolist()) + mpmath.matrix(sigma.cm.tolist())) / 2
                    delta = mpmath.matrix(rho.mean.tolist()) - mpmath.matrix(sigma.mean.tolist())
                    quad = (delta.T * mpmath.inverse(m) * delta)[0]
                    expected = mpmath.exp(-quad / 2) / mpmath.sqrt(mpmath.det(m))
                    assert abs(row.cm_value - expected) <= 3.5e-16 * expected, row.label

    def test_fock_values_match_50_digit_contractions(self):
        # Each row's Fock value against the exact contraction of the
        # coefficients it was computed from: |sum conj(psi) phi|^2, or
        # sum p q over the diagonals, in 50 digits.
        for family, pairs in fock._CASES.items():
            for row, (x1, x2) in zip(oracle_rows([family]), pairs):
                dms = [BUILDERS[family](x, row.cutoff) for x in (x1, x2)]
                with mpmath.workdps(50):
                    v1, v2 = ([mpmath.mpc(complex(z)) for z in dm.entries.tolist()] for dm in dms)
                    if dms[0].pure and dms[1].pure:
                        expected = abs(mpmath.fsum(mpmath.conj(a) * b for a, b in zip(v1, v2))) ** 2
                    else:
                        p, q = (
                            [abs(z) ** 2 if dm.pure else mpmath.re(z) for z in v]
                            for dm, v in zip(dms, (v1, v2))
                        )
                        expected = mpmath.fsum(a * b for a, b in zip(p, q))
                    assert abs(row.fock_value - expected) <= 5e-16 * expected, row.label

    def test_family_subset(self):
        rows = oracle_rows(["thermal"])
        assert {r.family for r in rows} == {"thermal"}
        with pytest.raises(ValueError):
            oracle_rows(["bogus"])

    def test_cross_family_single_mode_pairs(self):
        cutoff = 80
        cases = [
            (thermal_dm(1.0, cutoff), GaussianState(3.0 * np.eye(2), 1, 0),
             coherent_dm(1.0, cutoff),
             GaussianState(np.eye(2), 1, 0, [np.sqrt(2.0), 0.0])),
            (squeezed_vacuum_dm(0.5, cutoff),
             GaussianState(np.diag([np.exp(-1.0), np.exp(1.0)]), 1, 0),
             thermal_dm(0.5, cutoff), GaussianState(2.0 * np.eye(2), 1, 0)),
            (squeezed_vacuum_dm(0.3, cutoff),
             GaussianState(np.diag([np.exp(-0.6), np.exp(0.6)]), 1, 0),
             coherent_dm(0.8, cutoff),
             GaussianState(np.eye(2), 1, 0, [np.sqrt(2.0) * 0.8, 0.0])),
        ]
        for dm1, st1, dm2, st2 in cases:
            fock_val = overlap_fock(dm1, dm2)
            cm_val = overlap(st1, st2).value
            assert fock_val == pytest.approx(cm_val, rel=1e-6)


#: The public builder of each family.
BUILDERS = {
    "thermal": thermal_dm,
    "coherent": coherent_dm,
    "squeezed": squeezed_vacuum_dm,
    "tmsv": two_mode_squeezed_dm,
}

#: Parameters on which the weight-based cutoff search is checked against the
#: build-and-trace reference.  The largest of each family but coherent reach
#: the cutoff ceiling.
SEARCH_GRID = {
    "thermal": [0.0, 1e-3, 0.01, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 30.0, 100.0, 1e4],
    "coherent": [
        0.0,
        *(m * np.exp(1j * phase) for m in (0.5, 1.0, 2.0, 3.5, 6.0) for phase in (0.0, 0.7, np.pi / 2, -2.2)),
    ],
    "squeezed": [-1.0, -0.5, -0.1, 0.0, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0],
    "tmsv": [0.0, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0],
}

#: Cutoff of each `oracle_rows()` row, in order.
ORACLE_CUTOFFS = [40, 40, 160, 80, 20, 20, 20, 40, 80, 80, 40, 20, 80]


def build_or_message(build):
    """The density matrix ``build()`` returns, or the message of its ValueError."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


class TestCutoffSearch:
    @pytest.mark.parametrize("family", BUILDERS)
    @pytest.mark.parametrize("cutoff", [20.5, 20.0, "20", True])
    def test_non_integer_cutoff_rejected(self, family, cutoff):
        # int() would have built 20.5 at cutoff 20
        with pytest.raises(ValueError, match="must be an integer"):
            BUILDERS[family](0.01, cutoff)

    def test_numpy_integer_cutoff_accepted(self):
        dm = thermal_dm(0.01, np.int64(20))
        assert dm.cutoff == 20 and type(dm.cutoff) is int

    @pytest.mark.parametrize(
        "family, x", [(family, x) for family, xs in SEARCH_GRID.items() for x in xs]
    )
    def test_matches_build_and_trace_reference(self, family, x):
        expected = build_or_message(lambda: reference_adaptive_dm(family, x))
        got = build_or_message(lambda: BUILDERS[family](x))
        if isinstance(expected, str):
            assert got == expected
            return
        # A two-mode state is compared on its |kk> block: its full matrix at
        # cutoff 160 would take 5 GB.
        assert got.cutoff == expected.cutoff
        assert got.two_mode == (family == "tmsv")
        matrix = literal_matrix(got)
        assert matrix.dtype == expected.matrix.dtype
        assert matrix.shape == expected.matrix.shape
        assert matrix.tobytes() == expected.matrix.tobytes()
        assert got.trace_deficit == expected.trace_deficit

    def test_grid_reaches_the_ceiling(self):
        ceiling_hits = [
            (family, x)
            for family, xs in SEARCH_GRID.items()
            for x in xs
            if isinstance(build_or_message(lambda: reference_adaptive_dm(family, x)), str)
        ]
        assert ceiling_hits == [
            ("thermal", 30.0), ("thermal", 100.0), ("thermal", 1e4),
            ("squeezed", 2.0),
        ]


@pytest.fixture
def stored_cutoffs(monkeypatch):
    """The cutoff of every state `fock` stores, for the rest of the test."""
    cutoffs = []

    def counting(cutoff, *args, **kwargs):
        cutoffs.append(cutoff)
        return FockDensityMatrix(cutoff, *args, **kwargs)

    monkeypatch.setattr(fock, "FockDensityMatrix", counting)
    return cutoffs


class TestBuildCounts:
    @pytest.mark.parametrize("family", list(BUILDERS))
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    def test_adaptive_builder_builds_once(self, stored_cutoffs, family, x):
        dm = BUILDERS[family](x)
        assert stored_cutoffs == [dm.cutoff]

    def test_ceiling_raises_before_any_build(self, stored_cutoffs):
        with pytest.raises(ValueError, match="ceiling 512"):
            thermal_dm(1e4)
        assert stored_cutoffs == []

    def test_oracle_rows_builds_only_kept_states(self, stored_cutoffs):
        rows = oracle_rows()
        assert len(stored_cutoffs) == 20
        assert [r.cutoff for r in rows] == ORACLE_CUTOFFS


#: The rungs of the adaptive search, and one odd cutoff off it.
PREFIX_CUTOFFS = (20, 33, 40, 80, 160, 320, 512)

#: Parameters beyond `fock._CASES` on which the prefix property is checked too.
LARGER_PARAMETERS = {
    "thermal": [30.0, 1e4],
    "coherent": [6.0, 3.5j],
    "squeezed": [-1.5, 2.0],
    "tmsv": [1.5, 2.0],
}

#: Per `fock._CASES` parameter: the cutoff and digest of its default-cutoff
#: state, and one digest of its states at every explicit PREFIX_CUTOFFS
#: cutoff (or of the error where the deficit is too large), as the oracle
#: built them when it expanded each state at its own cutoff.
PINNED_STATES = {
    ("thermal", 0.0): ((20, "a9a03fe687fe3957"), "687314beaa9a5e6a"),
    ("thermal", 1.0): ((40, "8df6c431840a4356"), "a20480f4b4688d8c"),
    ("thermal", 3.0): ((160, "3e78cd0a0af842cd"), "c72fe1c619153971"),
    ("thermal", 0.5): ((40, "5c330217254e5f91"), "94f9208fe0015716"),
    ("thermal", 2.0): ((80, "7c4b06d79aa65317"), "9299ffd1d18d7967"),
    ("coherent", 0.0): ((20, "fc160738bdbc0fb1"), "83ae07ca5f749519"),
    ("coherent", 1.0): ((20, "60d5862c1a1cbddd"), "0482e9efca9d014e"),
    ("coherent", -0.5 + 0.5j): ((20, "b1053e4e8ab71e58"), "f3a2e1ff8bba40ff"),
    ("coherent", 2.0): ((40, "6a13114a8ced7af5"), "0772cd3ba2e78bd8"),
    ("coherent", 1j): ((20, "cb3bbc3f4ece357e"), "ee5cd61d963c4fa6"),
    ("squeezed", 0.0): ((20, "cefd7c3453cd70a4"), "5fb85e3700a43525"),
    ("squeezed", 1.0): ((80, "0759bf578f067cab"), "10b51e07579dfd77"),
    ("squeezed", 0.5): ((40, "4a9823d3ec8bbbe7"), "33b238200b873934"),
    ("squeezed", 0.3): ((20, "e018d1489ea302a4"), "5021b6d57a198a11"),
    ("tmsv", 0.0): ((20, "70a60cadd5c57204"), "9d7e531df7d7aa2f"),
    ("tmsv", 0.5): ((20, "5a7e84c614d4af65"), "5d29fd43626e8770"),
    ("tmsv", 1.0): ((80, "054054f1f927b040"), "3b39f61532577ee8"),
}


def state_pin(dm: FockDensityMatrix) -> tuple[int, str]:
    """The cutoff of a state and a digest of its entries' bytes and dtype, its
    trace deficit's bits and its flags."""
    h = hashlib.sha256(dm.entries.tobytes())
    h.update(f"{dm.entries.dtype}|{dm.trace_deficit.hex()}|{dm.pure}|{dm.two_mode}".encode())
    return dm.cutoff, h.hexdigest()[:16]


def explicit_cutoff_digest(family: str, x) -> str:
    h = hashlib.sha256()
    for c in PREFIX_CUTOFFS:
        h.update(str(build_or_message(lambda: state_pin(BUILDERS[family](x, c)))).encode())
    return h.hexdigest()[:16]


class TestCeilingSlices:
    @pytest.mark.parametrize(
        "family, x",
        [
            (family, x)
            for family, pairs in fock._CASES.items()
            for x in [*dict.fromkeys(v for pair in pairs for v in pair), *LARGER_PARAMETERS[family]]
        ],
    )
    def test_terms_are_a_prefix_of_the_ceiling_terms(self, family, x):
        # Every stored state is a slice of its terms at the ceiling, so the
        # terms at cutoff c must be the first c there, bit for bit.
        expansion = fock._BUILDERS[family][0](x)
        ceiling = expansion.terms(fock._CEILING)
        for c in PREFIX_CUTOFFS:
            assert expansion.terms(c).tobytes() == ceiling[:c].tobytes(), c

    @pytest.mark.parametrize("family, x", PINNED_STATES)
    def test_states_keep_their_bits(self, family, x):
        default, explicit = PINNED_STATES[family, x]
        assert state_pin(BUILDERS[family](x)) == default
        assert explicit_cutoff_digest(family, x) == explicit
