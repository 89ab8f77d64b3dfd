import math

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

from helpers import dense, nfg_theta_objective, reference_adaptive_dm


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
            assert np.array_equal(dm.entries, vacuum_projector(cutoff))
            assert dm.trace_deficit == 0.0

    def test_geometric_weights(self):
        dm = thermal_dm(1.0, cutoff=60)
        k = np.arange(60)
        assert np.diag(dm.entries) == pytest.approx(0.5**(k + 1.0))

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
        assert dm.entries.shape == (dm.cutoff, dm.cutoff)

    def test_ceiling_reported(self):
        with pytest.raises(ValueError):
            thermal_dm(1e4)  # would need a basis far beyond the ceiling


class TestCoherent:
    def test_zero_amplitude_is_vacuum(self):
        for cutoff in ZERO_PARAMETER_CUTOFFS:
            dm = coherent_dm(0.0, cutoff=cutoff)
            assert np.array_equal(dm.entries, vacuum_projector(cutoff).astype(complex))
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
        assert dm.entries[1, 0] == pytest.approx(1j * np.exp(-1.0), rel=1e-12)


class TestSqueezed:
    def test_zero_squeezing_is_vacuum(self):
        for cutoff in ZERO_PARAMETER_CUTOFFS:
            dm = squeezed_vacuum_dm(0.0, cutoff=cutoff)
            assert np.array_equal(dm.entries, vacuum_projector(cutoff))
            assert dm.trace_deficit == 0.0

    def test_odd_levels_empty(self):
        dm = squeezed_vacuum_dm(0.8)
        assert np.all(np.diag(dm.entries)[1::2] == 0.0)

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
        assert np.abs(reduced - thermal.entries).max() < 1e-12

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            two_mode_squeezed_dm(-1.0)


class TestSupportStorage:
    @pytest.mark.parametrize("cutoff", [10, 24])
    def test_overlap_matches_dense_contraction(self, cutoff):
        rng = np.random.default_rng(cutoff)
        # A hand-built state whose support only partly meets the |kk> pairs.
        support = np.array([1, cutoff + 1, 3 * cutoff + 3, cutoff - 1])
        g = rng.normal(size=(4, 4))
        block = g @ g.T / np.trace(g @ g.T)
        dms = [two_mode_squeezed_dm(r, cutoff) for r in (0.0, 0.1, 0.3)]
        dms.append(FockDensityMatrix(cutoff, block, 0.0, support))
        for a in dms:
            for b in dms:
                expected = np.einsum("ij,ji->", dense(a), dense(b))
                assert abs(overlap_fock(a, b) - expected) <= 1e-15

    @pytest.mark.parametrize("r, cutoff", [(0.3, 10), (0.3, 24), (1.0, None)])
    def test_block_holds_cutoff_squared_entries(self, r, cutoff):
        dm = two_mode_squeezed_dm(r, cutoff)
        assert dm.entries.nbytes == dm.cutoff**2 * 8
        assert np.array_equal(dm.support, np.arange(dm.cutoff) * (dm.cutoff + 1))

    @pytest.mark.parametrize("cutoff", [10, 24])
    def test_full_against_support_stored_rejected(self, cutoff):
        dm = two_mode_squeezed_dm(0.3, cutoff)
        full = FockDensityMatrix(cutoff, dense(dm), dm.trace_deficit)
        for a, b in ((full, dm), (dm, full), (thermal_dm(0.1, cutoff), dm)):
            with pytest.raises(ValueError):
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
        # exp(-i theta n_A) |kk> = exp(-i theta k) |kk>: same support.
        phase = np.exp(-1j * theta * np.arange(rho.cutoff))
        rotated = rho.entries * np.outer(phase, phase.conj())
        rho_s = FockDensityMatrix(rho.cutoff, rotated, rho.trace_deficit, rho.support)
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
    def test_hermitian_positive_unit_trace(self, dm):
        assert np.abs(dm.entries - dm.entries.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(dm.entries).min() > -1e-10
        assert dm.trace_deficit >= 0.0
        assert dm.trace_deficit < 1e-10


class TestOverlapFock:
    def test_non_hermitian_pair_rejected(self):
        # tr(ab) = 1j: an overlap that is not real must raise, also under -O.
        a = FockDensityMatrix(2, np.array([[1, 1j], [0, 0]]), 0.0)
        b = FockDensityMatrix(2, np.array([[0, 0], [1, 0]]), 0.0)
        with pytest.raises(ValueError, match="imaginary part 1"):
            overlap_fock(a, b)

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
        rows = oracle_rows()
        assert len(built) == 2 * len(rows) == 26

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
    @pytest.mark.parametrize(
        "family, x", [(family, x) for family, xs in SEARCH_GRID.items() for x in xs]
    )
    def test_matches_build_and_trace_reference(self, family, x):
        expected = build_or_message(lambda: reference_adaptive_dm(family, x))
        got = build_or_message(lambda: BUILDERS[family](x))
        if isinstance(expected, str):
            assert got == expected
            return
        assert got.cutoff == expected.cutoff
        assert got.entries.dtype == expected.entries.dtype
        assert got.entries.shape == expected.entries.shape
        assert got.entries.tobytes() == expected.entries.tobytes()
        assert got.trace_deficit == expected.trace_deficit
        if expected.support is None:
            assert got.support is None
        else:
            assert np.array_equal(got.support, expected.support)

    def test_grid_reaches_the_ceiling(self):
        ceiling_hits = [
            (family, x)
            for family, xs in SEARCH_GRID.items()
            for x in xs
            if isinstance(build_or_message(lambda: reference_adaptive_dm(family, x)), str)
        ]
        assert ceiling_hits == [
            ("thermal", 30.0), ("thermal", 100.0), ("thermal", 1e4),
            ("squeezed", 2.0), ("tmsv", 2.0),
        ]


@pytest.fixture
def finalize_cutoffs(monkeypatch):
    """The cutoff of every matrix `fock._finalize` builds, for the rest of the test."""
    cutoffs = []
    original = fock._finalize

    def counting(cutoff, *args):
        cutoffs.append(cutoff)
        return original(cutoff, *args)

    monkeypatch.setattr(fock, "_finalize", counting)
    return cutoffs


class TestBuildCounts:
    @pytest.mark.parametrize("family", list(BUILDERS))
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    def test_adaptive_builder_builds_once(self, finalize_cutoffs, family, x):
        dm = BUILDERS[family](x)
        assert finalize_cutoffs == [dm.cutoff]

    def test_ceiling_raises_before_any_build(self, finalize_cutoffs):
        with pytest.raises(ValueError, match="ceiling 512"):
            thermal_dm(1e4)
        assert finalize_cutoffs == []

    def test_oracle_rows_builds_only_kept_matrices(self, finalize_cutoffs):
        rows = oracle_rows()
        assert len(finalize_cutoffs) == 20
        assert [r.cutoff for r in rows] == ORACLE_CUTOFFS
