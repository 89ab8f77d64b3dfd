"""End-to-end acceptance suite.

Each test exercises one numbered acceptance criterion at its stated
tolerance and emits a single ``[criterion N] PASS/FAIL - detail`` verdict
line.  The lines bypass output capture so every run of ``pytest`` shows the
full scoreboard.

Criterion 2 is split: its nfg target is met at the stated point, but the
quoted dg and q reference values do not belong to n_bar = 10000 - they
reproduce the closed forms at n_bar = 100000 (to 2.9e-17 and 3.2e-7).  The
literal check is kept as a strict expected failure, and a companion test
verifies the same reference numbers at the point they actually describe.
"""

import time

import numpy as np
import pytest

from nfg import (
    GaussianChannel,
    GaussianState,
    GaussianUnitary,
    OptimizerConfig,
    SstsParams,
    StandardFormParams,
    SweepGrid,
    apply_gaussian_unitary,
    check_monotonicity,
    dg_ssts,
    nfg_after_channel_closed_form,
    nfg_numeric,
    nfg_ssts,
    nfg_ssts_limit,
    nfg_two_mode,
    nfg_upper_bound,
    overlap,
    purity,
    q_ssts,
    ssts,
    standard_form,
    sweep,
    tmsv,
)
from nfg.fock import oracle_rows

from conftest import seed
from helpers import (
    random_channel,
    random_state,
    random_symplectic,
    standard_state,
    with_ancilla,
)


@pytest.fixture
def announce(capfd):
    def _announce(num: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")

    return _announce


def criterion_rng(offset: int) -> np.random.Generator:
    return np.random.default_rng(seed() + offset)


class TestCriterion01PointValues:
    def test_family_values_at_published_point(self, announce):
        t0 = time.perf_counter()
        p = SstsParams(49.0, 0.9)
        nfg, dg, q = nfg_ssts(p), dg_ssts(p), q_ssts(p)
        ms = 1e3 * (time.perf_counter() - t0)
        ok = (
            abs(nfg - 0.897955) < 1e-5
            and abs(dg - 0.000356) < 1e-6
            and abs(q - 0.040867) < 1e-6
            and ms < 1000.0
        )
        announce(
            1,
            ok,
            f"(49, 0.9): nfg={nfg:.6f} dg={dg:.6f} q={q:.6f} in {ms:.2f} ms",
        )
        assert abs(nfg - 0.897955) < 1e-5
        assert abs(dg - 0.000356) < 1e-6
        assert abs(q - 0.040867) < 1e-6
        assert ms < 1000.0


class TestCriterion02LargeNBar:
    def test_nfg_at_stated_point(self, announce):
        nfg = nfg_ssts(SstsParams(10000.0, 0.9))
        ok = abs(nfg - 0.89803) < 1e-5
        announce(2, ok, f"nfg(10000, 0.9) = {nfg:.6f} (target 0.89803 +- 1e-5)")
        assert ok

    @pytest.mark.xfail(
        strict=True,
        reason="the dg and q reference values attributed to n_bar = 10000 "
        "reproduce the closed forms at n_bar = 100000 instead; the literal "
        "check is kept failing rather than silently reinterpreted",
    )
    def test_dg_and_q_at_stated_point(self, announce):
        p = SstsParams(10000.0, 0.9)
        dg, q = dg_ssts(p), q_ssts(p)
        ok = abs(dg - 8.72518e-11) < 1e-15 and abs(q - 2.1e-5) < 1e-6
        announce(
            2,
            ok,
            f"dg(10000, 0.9) = {dg:.6e} vs quoted 8.72518e-11, "
            f"q = {q:.6e} vs quoted 2.1e-05 (quoted pair matches n_bar = 100000)",
        )
        assert abs(dg - 8.72518e-11) < 1e-15
        assert abs(q - 2.1e-5) < 1e-6

    def test_reference_values_at_the_point_they_describe(self, announce):
        p = SstsParams(100000.0, 0.9)
        nfg, dg, q = nfg_ssts(p), dg_ssts(p), q_ssts(p)
        ok = (
            abs(nfg - 0.89803) < 1e-5
            and abs(dg - 8.72518e-11) < 1e-15
            and abs(q - 2.1e-5) < 1e-6
        )
        announce(
            2,
            ok,
            f"companion at (100000, 0.9): nfg={nfg:.6f} dg={dg:.6e} q={q:.6e} "
            "meet the quoted tolerances",
        )
        assert abs(nfg - 0.89803) < 1e-5
        assert abs(dg - 8.72518e-11) < 1e-15
        assert abs(q - 2.1e-5) < 1e-6


class TestCriterion03LimitLaw:
    def test_large_n_bar_approaches_limit(self, announce):
        gaps = {
            mu: abs(nfg_ssts(SstsParams(1e8, mu)) - nfg_ssts_limit(mu))
            for mu in (0.1, 0.5, 0.9)
        }
        worst = max(gaps.values())
        announce(3, worst < 1e-6, f"max |nfg(1e8, mu) - limit(mu)| = {worst:.3e}")
        assert worst < 1e-6


class TestCriterion04TmsvFamily:
    def test_closed_form_and_growth(self, announce):
        radii = (0.0, 0.25, 0.5, 1.0, 2.0)
        values = []
        worst = 0.0
        for r in radii:
            v = nfg_two_mode(tmsv(r)).value
            ref = 1.0 - 16.0 / ((np.exp(-4 * r) + np.exp(4 * r)) / 2.0 + 3.0) ** 2
            if v != ref:
                worst = max(worst, abs(v - ref) / abs(ref))
            values.append(v)
        increasing = all(x < y for x, y in zip(values, values[1:]))
        top = nfg_two_mode(tmsv(2.5)).value
        ok = worst < 1e-10 and increasing and top > 0.999
        announce(
            4,
            ok,
            f"tmsv rel err {worst:.2e}, strictly increasing: {increasing}, "
            f"nfg(r=2.5) = {top:.7f}",
        )
        assert worst < 1e-10
        assert increasing
        assert top > 0.999


class TestCriterion05NumericMatchesClosed:
    def test_two_hundred_random_states(self, announce):
        rng = criterion_rng(5)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(200):
            state = random_state(rng, 1, 1)
            gap = abs(nfg_numeric(state, OptimizerConfig()).value - nfg_two_mode(state).value)
            worst = max(worst, gap)
        dt = time.perf_counter() - t0
        ok = worst < 1e-8 and dt < 10.0
        announce(5, ok, f"max |numeric - closed| = {worst:.3e} over 200 states in {dt:.1f} s")
        assert worst < 1e-8
        assert dt < 10.0


class TestCriterion06LocalUnitaryInvariance:
    def test_two_hundred_random_transport(self, announce):
        rng = criterion_rng(6)
        worst = 0.0
        for i in range(200):
            state = random_state(rng, 1, 1, displaced=(i % 2 == 0))
            v0 = nfg_two_mode(state).value
            ua = GaussianUnitary(random_symplectic(rng, 1), rng.normal(size=2))
            ub = GaussianUnitary(random_symplectic(rng, 1), rng.normal(size=2))
            moved = apply_gaussian_unitary(apply_gaussian_unitary(state, ua, "A"), ub, "B")
            worst = max(worst, abs(nfg_two_mode(moved).value - v0))
        announce(6, worst < 1e-9, f"max drift under local unitaries = {worst:.3e}")
        assert worst < 1e-9


class TestCriterion07Monotonicity:
    def test_two_hundred_channel_pairs(self, announce):
        rng = criterion_rng(7)
        violations = 0
        worst_gap = 0.0
        for _ in range(200):
            state = random_state(rng, 1, 1)
            ch = random_channel(rng)
            report = check_monotonicity(state, ch)
            if not report.holds:
                violations += 1
            params, _, s_b = standard_form(state)
            framed = GaussianChannel(
                s_b @ ch.k @ np.linalg.inv(s_b), s_b @ ch.m_noise @ s_b.T, None
            )
            closed = nfg_after_channel_closed_form(params, framed).value
            worst_gap = max(worst_gap, abs(closed - report.after))
        ok = violations == 0 and worst_gap < 1e-8
        announce(
            7,
            ok,
            f"{violations} monotonicity violations; "
            f"max |closed-form after - recomputed after| = {worst_gap:.3e}",
        )
        assert violations == 0
        assert worst_gap < 1e-8


class TestCriterion08ZeroIffProduct:
    def test_products_and_faint_correlations(self, announce):
        rng = criterion_rng(8)
        products_exact = True
        for _ in range(20):
            cm_a = random_state(rng, 1, 0).cm
            cm_b = random_state(rng, 0, 1).cm
            cm = np.block(
                [[cm_a, np.zeros((2, 2))], [np.zeros((2, 2)), cm_b]]
            )
            if nfg_two_mode(GaussianState(cm, 1, 1)).value != 0.0:
                products_exact = False
        smallest = np.inf
        for _ in range(20):
            p = StandardFormParams(2.0, 2.0, 1e-6, rng.uniform(-1e-6, 1e-6))
            ua = GaussianUnitary(random_symplectic(rng, 1))
            ub = GaussianUnitary(random_symplectic(rng, 1))
            scrambled = apply_gaussian_unitary(
                apply_gaussian_unitary(standard_state(p), ua, "A"), ub, "B"
            )
            smallest = min(smallest, nfg_two_mode(scrambled).value)
        ok = products_exact and smallest > 0.0
        announce(
            8,
            ok,
            f"products give exactly 0: {products_exact}; "
            f"min value at |C| ~ 1e-6 after scrambling = {smallest:.3e} > 0",
        )
        assert products_exact
        assert smallest > 0.0


class TestCriterion09FockOracle:
    def test_overlap_formula_against_oracle(self, announce):
        t0 = time.perf_counter()
        rows = oracle_rows()
        dt = time.perf_counter() - t0
        worst_rel = max(r.rel_err for r in rows)
        worst_deficit = max(r.trace_deficit for r in rows)
        ok = worst_rel < 1e-6 and worst_deficit < 1e-10 and dt < 5.0
        announce(
            9,
            ok,
            f"{len(rows)} cases: max rel err {worst_rel:.2e}, "
            f"max trace deficit {worst_deficit:.2e}, {dt:.2f} s",
        )
        assert worst_rel < 1e-6
        assert worst_deficit < 1e-10
        assert dt < 5.0


class TestCriterion10Dominance:
    def test_grids_and_randomized_sampling(self, announce):
        t0 = time.perf_counter()
        grid_min = np.inf
        for grid in (
            SweepGrid(0.0, 50.0, 51, 0.0, 1.0, 51),
            SweepGrid(100000.0, 100500.0, 51, 0.0, 1.0, 51),
        ):
            _, _, (_, _, _, nfg_minus_dg, nfg_minus_q) = sweep(grid)
            grid_min = min(grid_min, nfg_minus_dg.min(), nfg_minus_q.min())
        rng = criterion_rng(10)
        sample_min = np.inf
        for _ in range(100_000):
            p = SstsParams(10.0 ** rng.uniform(-6.0, 13.0), rng.uniform(0.0, 1.0))
            nfg = nfg_ssts(p)
            sample_min = min(sample_min, nfg - dg_ssts(p), nfg - q_ssts(p))
        dt = time.perf_counter() - t0
        ok = grid_min >= -1e-12 and sample_min >= -1e-12 and dt < 30.0
        announce(
            10,
            ok,
            f"min slack: grids {grid_min:.3e}, 1e5 random samples {sample_min:.3e}, "
            f"{dt:.1f} s",
        )
        assert grid_min >= -1e-12
        assert sample_min >= -1e-12
        assert dt < 30.0


class TestCriterion11UpperBound:
    def test_five_hundred_random_states(self, announce):
        rng = criterion_rng(11)
        worst_excess = -np.inf
        bound_max = 0.0
        for _ in range(500):
            state = random_state(rng, 1, 1)
            bound = nfg_upper_bound(state)
            worst_excess = max(worst_excess, nfg_two_mode(state).value - bound)
            bound_max = max(bound_max, bound)
        ok = worst_excess <= 1e-10 and bound_max < 1.0
        announce(
            11,
            ok,
            f"max (value - bound) = {worst_excess:.3e}, largest bound = {bound_max:.15f}",
        )
        assert worst_excess <= 1e-10
        assert bound_max < 1.0


class TestCriterion12AncillaRemedy:
    """The local ancilla problem (Piani, PRA 86, 034101 (2012)): a
    Hilbert-Schmidt quantity changes when an uncorrelated ancilla joins one
    side, since tr[(rho x tau)(sigma x tau)] = tr(rho sigma) tr(tau^2).  The
    abstract sells N as its remedy."""

    def test_thermal_ancilla_scales_hs_but_not_the_measure(self, announce):
        rng = criterion_rng(12)
        states = [ssts(SstsParams(1.0, 0.7))]
        states += [random_state(rng, n_a, n_b) for n_a, n_b in ((1, 1), (1, 2), (2, 1), (2, 2))]
        quarter = np.array([[0.0, -1.0], [1.0, 0.0]])  # the pi/2 rotation, exactly

        def hs(rho, sigma):
            """tr rho^2 + tr sigma^2 - 2 tr rho sigma, and the sum of its terms."""
            p, q, x = purity(rho), purity(sigma), overlap(rho, sigma).value
            return p + q - 2.0 * x, p + q + 2.0 * x

        worst_hs, worst_ulps, cases = 0.0, 0.0, 0
        for rho in states:
            sigma = apply_gaussian_unitary(
                rho, GaussianUnitary(np.kron(np.eye(rho.n_a), quarter)), "A"
            )
            distance, _ = hs(rho, sigma)
            value = nfg_numeric(rho).value
            for side in ("A", "B"):
                for n_bar in 10.0 ** np.arange(-3, 7):
                    tau = (1.0 + 2.0 * n_bar) * np.eye(2)
                    tau_purity = 1.0 / (1.0 + 2.0 * n_bar)
                    rho_tau = with_ancilla(rho, side, tau)
                    grown, terms = hs(rho_tau, with_ancilla(sigma, side, tau))
                    err = abs(grown - tau_purity * distance) / terms
                    worst_hs = max(worst_hs, err / np.finfo(float).eps)
                    drift = abs(nfg_numeric(rho_tau).value - value)
                    worst_ulps = max(worst_ulps, drift / np.spacing(value))
                    cases += 1
        ok = worst_hs <= 64.0 and worst_ulps <= 4.0
        announce(
            12,
            ok,
            f"{cases} ancillas, n_bar 1e-3..1e6: HS distance = tr(tau^2) x HS to "
            f"{worst_hs:.1f} eps of its terms; N moves at most {worst_ulps:.0f} ulps",
        )
        assert worst_hs <= 64.0
        assert worst_ulps <= 4.0
