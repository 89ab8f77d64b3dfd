"""Command-line front end: file I/O, single-shot computations, and sweeps.

Subcommands: validate, nfg, channel, sweep, oracle-check, standard-form.
Each subparser names its handler, a private function of the parsed
arguments, so `main` only parses, runs the handler and maps errors to exit
codes.  There is no per-subcommand Python API: call the library (``nfg``)
directly, or ``main([...])`` with the command-line arguments.  The public
names are `main`, the console-script entry point `run`, and the file
helpers `read_state`, `write_state` and `read_channel`.

States and channels travel as single JSON documents (schema below); sweeps
are written as CSV.  All numbers are printed with 17 significant digits so
output is byte-deterministic and round-trips exactly.

Exit codes are a stable contract:

* 0 - success;
* 1 - domain failure (unphysical state, invalid channel, wrong partition);
* 2 - I/O or parse failure (unreadable file, malformed JSON, bad flags).

State file::

    {"schema_version": "1", "n_a": 1, "n_b": 1,
     "cm": [<row-major 2(n_a+n_b) x 2(n_a+n_b) floats>],
     "mean": [<optional, defaults to zeros>]}

``n_a`` and ``n_b`` must be JSON integers, and entries JSON numbers: a
count of 1.0, true or "1", or an entry true, "3" or null, is a parse failure.

Channel file::

    {"schema_version": "1",
     "k": [<row-major 2m x 2m floats>], "m_noise": [<same shape>],
     "d_bar": [<optional, defaults to zeros>]}
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .correlation import (
    check_monotonicity,
    nfg_after_channel_closed_form,
    nfg_numeric,
    nfg_two_mode,
    nfg_upper_bound,
)
from .families import SweepGrid, sweep
from .fock import _CASES, oracle_rows
from .states import GaussianChannel, GaussianState, standard_form, validate_cm

__all__ = ["main", "read_channel", "read_state", "run", "write_state"]

SCHEMA_VERSION = "1"
CSV_HEADER = "n_bar,mu,nfg,dg,q,nfg_minus_dg,nfg_minus_q"


class ParseError(Exception):
    """Unreadable or structurally malformed input file (exit code 2)."""


def _g(x: float) -> str:
    return f"{float(x):.17g}"


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    return doc


def _numbers(value, key: str, path: str) -> np.ndarray:
    """Field ``key``'s ``value`` as a float array.  A bool, str or null entry
    is a parse failure, though NumPy would read true as 1.0, "3" as 3.0 and
    null as NaN."""
    try:
        if isinstance(value, list) and any(x is None or isinstance(x, (bool, str)) for x in value):
            raise TypeError("bool, str or null entry")
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: field {key!r} is not a list of numbers") from exc


def _matrix(doc: dict, key: str, path: str) -> np.ndarray:
    if key not in doc:
        raise ParseError(f"{path}: missing field {key!r}")
    flat = _numbers(doc[key], key, path)
    if flat.ndim != 1:
        raise ParseError(f"{path}: field {key!r} must be a flat row-major list")
    dim = math.isqrt(flat.size)
    if dim * dim != flat.size or dim == 0 or dim % 2:
        raise ParseError(
            f"{path}: field {key!r} has {flat.size} entries, "
            "not a square matrix of even dimension"
        )
    return flat.reshape(dim, dim)


def _vector(doc: dict, key: str, length: int, path: str) -> np.ndarray:
    if doc.get(key) is None:
        return np.zeros(length)
    vec = _numbers(doc[key], key, path)
    if vec.shape != (length,):
        raise ParseError(f"{path}: field {key!r} must have length {length}")
    return vec


def _parse_state_raw(path: str) -> tuple[int, int, np.ndarray, np.ndarray]:
    doc = _read_json(path)
    n_a, n_b = doc.get("n_a"), doc.get("n_b")
    # a JSON integer only: int() would take 1.9, true or "1" too
    if not all(type(n) is int for n in (n_a, n_b)):
        raise ParseError(f"{path}: fields 'n_a' and 'n_b' must be integers")
    if n_a < 0 or n_b < 0 or n_a + n_b < 1:
        raise ParseError(f"{path}: need n_a, n_b >= 0 with at least one mode")
    cm = _matrix(doc, "cm", path)
    dim = 2 * (n_a + n_b)
    if cm.shape[0] != dim:
        raise ParseError(
            f"{path}: cm is {cm.shape[0]}x{cm.shape[0]}, expected {dim}x{dim} "
            f"for {n_a}+{n_b} modes"
        )
    mean = _vector(doc, "mean", dim, path)
    return n_a, n_b, cm, mean


def read_state(path: str) -> GaussianState:
    """Parse a state file; raises ParseError on structure, ValueError on physics."""
    n_a, n_b, cm, mean = _parse_state_raw(path)
    return GaussianState(cm, n_a, n_b, mean)


def write_state(state: GaussianState, path: str) -> None:
    """Write a state file that re-parses to the identical state.  The counts
    may be NumPy integers; the text is built before the file is opened."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n_a": int(state.n_a),
        "n_b": int(state.n_b),
        "cm": [float(x) for x in state.cm.ravel()],
        "mean": [float(x) for x in state.mean],
    }
    text = json.dumps(doc, indent=1) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_channel(path: str) -> GaussianChannel:
    """Parse a channel file; raises ParseError on structure, ValueError on validity."""
    doc = _read_json(path)
    k = _matrix(doc, "k", path)
    m = _matrix(doc, "m_noise", path)
    if m.shape != k.shape:
        raise ParseError(f"{path}: 'k' and 'm_noise' must have the same shape")
    d_bar = _vector(doc, "d_bar", k.shape[0], path)
    return GaussianChannel(k, m, d_bar)


# --- subcommands -------------------------------------------------------------
#
# Each handler takes the parsed arguments and returns the exit code.


def _print_fields(fields: dict, as_json: bool = False) -> None:
    """Print ``fields`` as one JSON object, or one "key: value" line each:
    a float with `_g`, a flag as yes/no, a list as space-separated `_g`."""
    if as_json:
        print(json.dumps(fields))
        return
    for key, val in fields.items():
        if isinstance(val, bool):
            val = "yes" if val else "no"
        elif isinstance(val, list):
            val = " ".join(_g(v) for v in val)
        elif not isinstance(val, str):
            val = _g(val)
        print(f"{key}: {val}")


def _validate(args) -> int:
    """Report symmetry, symplectic spectrum, and physicality; exit 0 iff physical."""
    _, _, cm, _ = _parse_state_raw(args.state)
    report = validate_cm(cm)
    nus = report.symplectic_eigenvalues.tolist()
    if args.json:
        fields = {
            "symmetric": report.symmetric,
            "symplectic_eigenvalues": nus,
            "positive_definite": report.positive_definite,
            "physical": report.physical,
        }
    else:
        fields = {
            "symplectic eigenvalues": nus,
            "symmetric": report.symmetric,
            "positive definite": report.positive_definite,
            "physical": report.physical,
        }
    _print_fields(fields, args.json)
    return 0 if report.physical else 1


def _nfg(args) -> int:
    """Compute the correlation measure (or its upper bound) for a state file."""
    state = read_state(args.state)
    if args.method == "bound":
        out = {"value": nfg_upper_bound(state), "method": "bound"}
    else:
        res = nfg_two_mode(state) if args.method == "closed" else nfg_numeric(state)
        out = {
            "value": res.value,
            "method": res.method,
            "optimizer_theta": [float(t) for t in res.optimizer_theta],
            "lower_bound_only": res.lower_bound_only,
        }
    _print_fields(out, args.json)
    return 0


def _channel(args) -> int:
    """Send B through a channel, print the measure before/after and the verdict.

    Any partition is accepted.  With ``--compare-closed``, which needs a
    (1+1)-mode state and fails before any output otherwise, also evaluate the
    post-channel closed form (with the channel conjugated into the state's
    standard-form frame, so the comparison is exact for any input
    orientation) and print the discrepancy against the apply-then-compute
    value.
    """
    state = read_state(args.state)
    ch = read_channel(args.channel)
    if args.compare_closed:
        params, _, s_b = standard_form(state)
    report = check_monotonicity(state, ch)
    out = {
        "before": report.before,
        "after": report.after,
        "monotonic": report.holds,
        "slack": report.slack,
    }
    if args.compare_closed:
        frame = GaussianChannel(
            s_b @ ch.k @ np.linalg.inv(s_b), s_b @ ch.m_noise @ s_b.T, None
        )
        out["closed_form_after"] = nfg_after_channel_closed_form(params, frame).value
        out["discrepancy"] = abs(out["closed_form_after"] - report.after)
    _print_fields(out)
    return 0


_FIGURE_GRIDS = {
    "1": SweepGrid(0.0, 50.0, 51, 0.0, 1.0, 51),
    "3": SweepGrid(0.0, 50.0, 51, 0.0, 1.0, 51),
    "2": SweepGrid(100000.0, 100500.0, 51, 0.0, 1.0, 51),
    "4": SweepGrid(100000.0, 100500.0, 51, 0.0, 1.0, 51),
}


def _sweep(args) -> int:
    """Evaluate the closed forms on a grid and emit CSV (stdout or --out file).

    ``--figure`` picks a paper grid, and a grid option given with it is a
    parse failure; otherwise the grid options given replace figure 1's, and
    a grid `SweepGrid` rejects is a parse failure.  Every number is a
    ``%.17g`` format (the same digits as ``_g``).  Each n_bar and each mu of
    the grid is formatted once; a row is its "n_bar,mu," prefix, built
    lazily from those, and one format of its five values.  The text is
    written at once; an invalid grid raises before any file is opened.
    """
    given = {k: v for k, v in vars(args).items() if k in SweepGrid.__dataclass_fields__}
    if args.figure is not None:
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise ParseError(f"{flags} cannot be given with --figure")
        grid = _FIGURE_GRIDS[args.figure]
    else:
        try:
            grid = SweepGrid(**{**vars(_FIGURE_GRIDS["1"]), **given})
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    n_axis, mu_axis, values = sweep(grid)
    mu_cells = ["%.17g," % mu for mu in mu_axis.tolist()]
    n_cells = ("%.17g," % n for n in n_axis.tolist())
    prefixes = (n + mu for n in n_cells for mu in mu_cells)
    row = "%s" + ",".join(["%.17g"] * len(values))
    # a generator, so the value lists are freed before the join, not after it
    rows = (row % r for r in zip(prefixes, *(c.tolist() for c in values)))
    text = "\n".join([CSV_HEADER, *rows]) + "\n"
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from exc
    return 0


def _oracle_check(args) -> int:
    """Compare phase-space overlaps against the Fock oracle; exit 0 iff all match.

    ``--families`` is a comma-separated subset of the oracle's cases; an
    unknown name is a parse failure.
    """
    families = None if args.families is None else args.families.split(",")
    for name in families or []:
        if name not in _CASES:
            raise ParseError(f"unknown family {name!r}")
    rows = oracle_rows(families)
    width = max(len(f"{r.family} {r.label}") for r in rows)
    print(f"{'case':<{width}}  {'fock':<24} {'formula':<24} {'rel_err':<10} deficit")
    worst = 0.0
    for r in rows:
        case = f"{r.family} {r.label}"
        print(
            f"{case:<{width}}  {_g(r.fock_value):<24} {_g(r.cm_value):<24} "
            f"{r.rel_err:<10.3g} {r.trace_deficit:.3g}"
        )
        worst = max(worst, r.rel_err)
    ok = worst < 1e-6
    print(f"worst relative error: {worst:.3g} ({'pass' if ok else 'FAIL'})")
    return 0 if ok else 1


def _standard_form(args) -> int:
    """Print the standard-form parameters (a, b, c, d) of a two-mode state."""
    params, _, _ = standard_form(read_state(args.state))
    _print_fields({"a": params.a, "b": params.b, "c": params.c, "d": params.d}, args.json)
    return 0


# --- argument parsing --------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``nfg`` parser, built on first use and shared: parsing does not
    change it, and argparse looks up the output streams only when it prints."""
    parser = argparse.ArgumentParser(
        prog="nfg",
        description="Fidelity-based correlation of bipartite Gaussian states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a state file for physicality")
    p.set_defaults(run=_validate)
    p.add_argument("state")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("nfg", help="compute the correlation measure of a state file")
    p.set_defaults(run=_nfg)
    p.add_argument("state")
    p.add_argument("--method", choices=["closed", "numeric", "bound"], default="closed")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("channel", help="apply a channel on B and check monotonicity, any partition")
    p.set_defaults(run=_channel)
    p.add_argument("state")
    p.add_argument("channel")
    p.add_argument("--compare-closed", action="store_true")

    p = sub.add_parser("sweep", help="closed-form measures over an (n_bar, mu) grid as CSV")
    p.set_defaults(run=_sweep)
    p.add_argument("--figure", choices=["1", "2", "3", "4"])
    p.add_argument("--n-bar-min", type=float, default=argparse.SUPPRESS)
    p.add_argument("--n-bar-max", type=float, default=argparse.SUPPRESS)
    p.add_argument("--n-bar-steps", type=int, default=argparse.SUPPRESS)
    p.add_argument("--mu-min", type=float, default=argparse.SUPPRESS)
    p.add_argument("--mu-max", type=float, default=argparse.SUPPRESS)
    p.add_argument("--mu-steps", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", help="output CSV path (default stdout)")

    p = sub.add_parser("oracle-check", help="validate overlaps against the Fock oracle")
    p.set_defaults(run=_oracle_check)
    p.add_argument(
        "--families",
        help=f"comma-separated subset of {','.join(_CASES)} (default all)",
    )

    p = sub.add_parser("standard-form", help="print standard-form parameters of a state file")
    p.set_defaults(run=_standard_form)
    p.add_argument("state")
    p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the ``nfg`` command on ``argv`` (default ``sys.argv[1:]``) and
    return its exit code: 0 success, 1 domain failure, 2 parse failure.

    The argument parser is built once per process, on the first call."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; pass its code through
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
