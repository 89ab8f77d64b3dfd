"""Every pinned `nfg` output, byte for byte.

Each case runs ``main(argv)`` in ``tests/data``, where its state and channel
files live, so error lines name bare file names.  It compares the exit code,
stdout against ``tests/golden/<case id>.txt``, and stderr against the
table's line ("" for none).  Any warning fails the case, so an overflow
must surface as the one error line, not as a NumPy warning.

A golden changes only with an output change that is listed, and by hand:
there is no regeneration switch.

The files: ``two``, ``three``, ``one-two`` and ``four`` are TMSV-like
states at (1+1), (2+1), (1+2) and (2+2), whose spectra take the closed
form, the SVD, the SVD with zeros padded in front, and a degenerate A
(``lower_bound_only``).  ``rotated`` is a generic (1+1) state with entries
rounded to two decimals, and ``random-1+2`` and ``random-2+2`` are its
kind at larger partitions; ``ssts`` is the SSTS at (49, 0.9), written by
`write_state`.  ``huge`` and ``rotated-huge`` scale ``two`` and
``rotated`` by 1e200, past what the closed forms and the standard form
take without their power-of-two scaling.  ``one`` is the one-mode thermal
state 3 I, and ``one-three`` a (1+3) state.
The channels: ``loss`` (one mode, and ``loss2``, ``loss3`` on each of two
and three modes), ``splitter`` (a lossy 50:50 beam splitter on two modes),
``gain`` ((det K)^2 = 1e400), ``squeezer`` (max|K| = 1e150), and the
noiseless amplifiers ``amplifier`` and ``amplifier3``, which are not
completely positive.  ``unphysical`` and ``one-sub`` violate the
uncertainty principle.  These fail to parse: ``fractional``, ``string``,
``array`` (a JSON array, not an object), ``no-cm``, ``nested`` (a cm of
rows, not flat), ``short-mean`` (a mean of one entry for one mode),
``negative`` (``n_a`` = -1) and the channel ``mismatch`` (2 x 2 K, 4 x 4 M).
"""

from pathlib import Path

import pytest

from nfg.cli import main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA.parent / "golden"

NON_FINITE = "error: covariance matrix has non-finite entries"
NOT_CP = "error: invalid channel: M + i(Delta - K Delta K^T) has eigenvalue -3 < 0"
NOT_1_1 = "error: standard form is defined for (1+1)-mode states"

#: Case id: (argv, exit code, stderr line).
CASES = {
    "oracle-check": ("oracle-check", 0, ""),
    "oracle-check-thermal-coherent": ("oracle-check --families thermal,coherent", 0, ""),
    "oracle-check-empty-families": ("oracle-check --families=", 2, "error: unknown family ''"),
    "sweep-figure-grid-options": (
        "sweep --figure 1 --n-bar-min 7 --n-bar-steps 3", 2,
        "error: --n-bar-min, --n-bar-steps cannot be given with --figure",
    ),
    "nfg-two": ("nfg two.json", 0, ""),
    "nfg-two-closed": ("nfg two.json --method closed", 0, ""),
    "nfg-two-closed-json": ("nfg two.json --method closed --json", 0, ""),
    "nfg-two-numeric": ("nfg two.json --method numeric", 0, ""),
    "nfg-two-numeric-json": ("nfg two.json --method numeric --json", 0, ""),
    "nfg-two-bound": ("nfg two.json --method bound", 0, ""),
    "nfg-two-bound-json": ("nfg two.json --method bound --json", 0, ""),
    "nfg-three-numeric": ("nfg three.json --method numeric", 0, ""),
    "nfg-three-numeric-json": ("nfg three.json --method numeric --json", 0, ""),
    "nfg-three-bound": ("nfg three.json --method bound", 0, ""),
    "nfg-three-bound-json": ("nfg three.json --method bound --json", 0, ""),
    "nfg-one-two-numeric": ("nfg one-two.json --method numeric", 0, ""),
    "nfg-one-two-numeric-json": ("nfg one-two.json --method numeric --json", 0, ""),
    "nfg-one-two-bound": ("nfg one-two.json --method bound", 0, ""),
    "nfg-one-two-bound-json": ("nfg one-two.json --method bound --json", 0, ""),
    "nfg-four-numeric": ("nfg four.json --method numeric", 0, ""),
    "nfg-four-numeric-json": ("nfg four.json --method numeric --json", 0, ""),
    "nfg-four-bound": ("nfg four.json --method bound", 0, ""),
    "nfg-four-bound-json": ("nfg four.json --method bound --json", 0, ""),
    "nfg-ssts-json": ("nfg ssts.json --json", 0, ""),
    "nfg-ssts-numeric-json": ("nfg ssts.json --method numeric --json", 0, ""),
    "nfg-ssts-bound": ("nfg ssts.json --method bound", 0, ""),
    "nfg-ssts-bound-json": ("nfg ssts.json --method bound --json", 0, ""),
    "nfg-rotated-json": ("nfg rotated.json --json", 0, ""),
    "nfg-rotated-bound": ("nfg rotated.json --method bound", 0, ""),
    "nfg-rotated-bound-json": ("nfg rotated.json --method bound --json", 0, ""),
    "nfg-random-1+2-numeric-json": ("nfg random-1+2.json --method numeric --json", 0, ""),
    "nfg-random-1+2-bound": ("nfg random-1+2.json --method bound", 0, ""),
    "nfg-random-2+2-numeric-json": ("nfg random-2+2.json --method numeric --json", 0, ""),
    "nfg-random-2+2-bound": ("nfg random-2+2.json --method bound", 0, ""),
    "nfg-random-2+2-bound-json": ("nfg random-2+2.json --method bound --json", 0, ""),
    "nfg-fractional": ("nfg fractional.json", 2, "error: fractional.json: fields 'n_a' and 'n_b' must be integers"),
    "nfg-string": ("nfg string.json", 2, "error: string.json: field 'cm' is not a list of numbers"),
    "nfg-array": ("nfg array.json", 2, "error: array.json: top-level JSON value must be an object"),
    "nfg-nested": ("nfg nested.json", 2, "error: nested.json: field 'cm' must be a flat row-major list"),
    "nfg-negative": ("nfg negative.json", 2, "error: negative.json: need n_a, n_b >= 0 with at least one mode"),
    "validate-no-cm": ("validate no-cm.json", 2, "error: no-cm.json: missing field 'cm'"),
    "validate-short-mean": ("validate short-mean.json", 2, "error: short-mean.json: field 'mean' must have length 2"),
    "validate-two": ("validate two.json", 0, ""),
    "validate-two-json": ("validate two.json --json", 0, ""),
    "validate-one": ("validate one.json", 0, ""),
    "validate-one-json": ("validate one.json --json", 0, ""),
    "validate-ssts": ("validate ssts.json", 0, ""),
    "validate-ssts-json": ("validate ssts.json --json", 0, ""),
    "validate-rotated": ("validate rotated.json", 0, ""),
    "validate-rotated-json": ("validate rotated.json --json", 0, ""),
    "validate-random-1+2": ("validate random-1+2.json", 0, ""),
    "validate-random-1+2-json": ("validate random-1+2.json --json", 0, ""),
    "validate-random-2+2": ("validate random-2+2.json", 0, ""),
    "validate-unphysical": ("validate unphysical.json", 1, ""),
    "validate-one-sub": ("validate one-sub.json", 1, ""),
    "standard-form-ssts": ("standard-form ssts.json", 0, ""),
    "standard-form-ssts-json": ("standard-form ssts.json --json", 0, ""),
    "standard-form-rotated": ("standard-form rotated.json", 0, ""),
    "standard-form-two-json": ("standard-form two.json --json", 0, ""),
    "standard-form-rotated-json": ("standard-form rotated.json --json", 0, ""),
    "standard-form-huge-json": ("standard-form huge.json --json", 0, ""),
    "standard-form-rotated-huge-json": ("standard-form rotated-huge.json --json", 0, ""),
    "channel-ssts-loss": ("channel ssts.json loss.json", 0, ""),
    "channel-rotated-loss": ("channel rotated.json loss.json", 0, ""),
    "channel-random-1+2-splitter": ("channel random-1+2.json splitter.json", 0, ""),
    "channel-random-2+2-splitter": ("channel random-2+2.json splitter.json", 0, ""),
    "channel-one-two-loss2": ("channel one-two.json loss2.json", 0, ""),
    "channel-one-three-loss3": ("channel one-three.json loss3.json", 0, ""),
    "channel-ssts-loss-closed": ("channel ssts.json loss.json --compare-closed", 0, ""),
    "channel-two-loss-closed": ("channel two.json loss.json --compare-closed", 0, ""),
    "channel-rotated-loss-closed": ("channel rotated.json loss.json --compare-closed", 0, ""),
    "channel-huge-loss-closed": ("channel huge.json loss.json --compare-closed", 0, ""),
    "channel-rotated-huge-loss-closed": ("channel rotated-huge.json loss.json --compare-closed", 0, ""),
    "channel-two-gain-closed": ("channel two.json gain.json --compare-closed", 0, ""),
    "channel-two-squeezer-closed": ("channel two.json squeezer.json --compare-closed", 0, ""),
    "channel-huge-gain-closed": ("channel huge.json gain.json --compare-closed", 1, NON_FINITE),
    "channel-huge-squeezer-closed": ("channel huge.json squeezer.json --compare-closed", 1, NON_FINITE),
    "channel-random-1+2-splitter-closed": ("channel random-1+2.json splitter.json --compare-closed", 1, NOT_1_1),
    "channel-random-2+2-splitter-closed": ("channel random-2+2.json splitter.json --compare-closed", 1, NOT_1_1),
    "channel-two-amplifier": ("channel two.json amplifier.json", 1, NOT_CP),
    "channel-one-three-amplifier3": ("channel one-three.json amplifier3.json", 1, NOT_CP),
    "channel-two-mismatch": ("channel two.json mismatch.json", 2, "error: mismatch.json: 'k' and 'm_noise' must have the same shape"),
}  # fmt: skip


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(CASES))
def test_output_is_pinned(capsys, monkeypatch, case):
    argv, code, err = CASES[case]
    monkeypatch.chdir(DATA)
    status = main(argv.split())
    out, stderr = capsys.readouterr()
    golden = (GOLDEN / f"{case}.txt").read_bytes()
    assert (status, out.encode(), stderr) == (code, golden, f"{err}\n" if err else "")


def test_every_golden_has_a_case():
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(CASES)
