"""Pinned digests of the scalar paths: (1+1), and (2+1) and (1+2).

The (1+1) kernels run in Python floats, with no BLAS product and no NumPy
arithmetic: the one-sided maps, the correlation spectrum mu, the standard
form, the post-channel closed form, the log overlaps, and c_squared and
purity, which end in libm's ``exp`` of those logs.  Their bits then depend
only on IEEE double arithmetic and the C library's elementary functions,
not on the CPU's BLAS build or on the CPU NumPy dispatches its own loops
by, so one digest can pin them.  The corpus is built the same way: from
standard-form parameters drawn by Python's `random` and written-out
rotations and squeezers, with every state after the first made by the maps
themselves.

The spectrum of a partition with a one-mode side against a two-mode side
runs in Python floats too, and so do the measure and the bound read from
it, so a second digest pins mu, `nfg_numeric` and `nfg_upper_bound` at
(2+1) and (1+2), over a corpus written out in floats the same way.

A change to any hashed bit is an output change: it is listed, and the
digest re-recorded.
"""

import hashlib
import math
import random
import struct

from nfg import (
    GaussianChannel,
    GaussianState,
    GaussianUnitary,
    StandardFormParams,
    apply_channel,
    apply_gaussian_unitary,
    c_squared,
    check_monotonicity,
    nfg_after_channel_closed_form,
    nfg_numeric,
    nfg_upper_bound,
    purity,
    standard_form,
)
from nfg.overlap import _log_overlap

#: sha256 of the corpus values below, in their order, as little-endian doubles.
PINNED = "dd5f8dcc6c814185988a822a7e78875f5999ee6f44158a638a3e2219e4e55d30"

#: sha256 of the (2+1) and (1+2) corpus values, likewise.
PINNED_ONE_MODE_SIDE = "9d418bee5bae048fe5da790a6f73c4dc161ac3875a803d95754050471161a398"


def _product(x, y):
    """The 2 x 2 product x y of nested lists, written out."""
    (x00, x01), (x10, x11) = x
    (y00, y01), (y10, y11) = y
    return [
        [x00 * y00 + x01 * y10, x00 * y01 + x01 * y11],
        [x10 * y00 + x11 * y10, x10 * y01 + x11 * y11],
    ]


def _rotation(t: float):
    c, s = math.cos(t), math.sin(t)
    return [[c, -s], [s, c]]


def _local(rng: random.Random):
    """R(t1) diag(e^-r, e^r) R(t2), a one-mode symplectic, in floats."""
    r = rng.uniform(0.0, 1.0)
    squeeze = [[math.exp(-r), 0.0], [0.0, math.exp(r)]]
    first = _product(_rotation(rng.uniform(0.0, 6.3)), squeeze)
    return _product(first, _rotation(rng.uniform(0.0, 6.3)))


def _inverse(s):
    """The inverse of a one-mode symplectic s, -Delta s^T Delta, exactly."""
    (s00, s01), (s10, s11) = s
    return [[s11, -s01], [-s10, s00]]


def _standard_params(rng: random.Random) -> StandardFormParams:
    """A physical standard form: a thermal pair under a two-mode squeezer,
    which has d = -c, with d drawn in [-c, 0] and moved halfway back to -c
    until the verdict accepts it."""
    n1, n2 = (1.0 + 2.0 * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(2))
    r = rng.uniform(0.0, 1.5)
    ch, sh = math.cosh(r), math.sinh(r)
    a, b, c = n1 * ch * ch + n2 * sh * sh, n1 * sh * sh + n2 * ch * ch, (n1 + n2) * ch * sh
    d = -c * rng.uniform(0.0, 1.0)
    while True:
        try:
            return StandardFormParams(a, b, c, d)
        except ValueError:
            d = 0.5 * (d - c)


def _corpus_values(count: int = 48):
    """The hashed values, in order, over a seeded corpus of ``count`` states."""
    rng = random.Random(20261020)
    values = []
    for _ in range(count):
        p = _standard_params(rng)
        a, b, c, d = p.a, p.b, p.c, p.d
        state = GaussianState([[a, 0, c, 0], [0, a, 0, d], [c, 0, b, 0], [0, d, 0, b]], 1, 1)
        for side in ("A", "B"):
            shift = [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
            state = apply_gaussian_unitary(state, GaussianUnitary(_local(rng), shift), side)
        params, s_a, s_b = standard_form(state)
        s_a = s_a.tolist()
        # a pi/2 rotation of A in its standard-form frame, as `nfg nfg` measures
        quarter = _product(_inverse(s_a), _product(_rotation(math.pi / 2), s_a))
        rotated = apply_gaussian_unitary(state, GaussianUnitary(quarter), "A")
        gain = rng.uniform(0.1, 1.5)
        k = [[gain * x for x in row] for row in _local(rng)]
        noise = abs(1.0 - gain * gain) + rng.uniform(0.0, 1.0)
        ch = GaussianChannel(k, [[noise, 0.0], [0.0, noise]], [rng.uniform(-1.0, 1.0), 0.5])
        after = apply_channel(state, ch)
        report = check_monotonicity(state, ch)
        for out in (state, rotated, after):
            values += [x for row in out._rows for x in row] + out.mean.tolist()
            values += out._correlation_spectrum
        values += [params.a, params.b, params.c, params.d, *s_a[0], *s_a[1], *s_b.ravel().tolist()]
        for x, y in ((state, rotated), (state, state), (rotated, rotated)):
            values.append(_log_overlap(x, y))
        values += [c_squared(state, rotated), purity(state), purity(rotated)]
        values += [report.before, report.after, nfg_after_channel_closed_form(params, ch).value]
    return values


def test_scalar_two_mode_path_keeps_its_bits():
    values = _corpus_values()
    digest = hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()
    assert digest == PINNED


def _dot(x, y) -> float:
    """x . y, accumulated left to right."""
    total = 0.0
    for a, b in zip(x, y):
        total += a * b
    return total


def _congruence(s, g):
    """S G S^T of nested lists by `_dot`, mirrored from the lower triangle,
    so it is exactly symmetric."""
    t = [[_dot(row, col) for col in zip(*g)] for row in s]
    out = [row.copy() for row in g]
    for i in range(len(g)):
        for j in range(i + 1):
            out[i][j] = out[j][i] = _dot(t[i], s[j])
    return out


def _two_mode_side(rng: random.Random):
    """A symplectic on two modes: a beam splitter at a random angle, then a
    `_local` symplectic on each mode."""
    t = rng.uniform(0.0, 1.6)
    c, s = math.cos(t), math.sin(t)
    split = [[c, 0.0, s, 0.0], [0.0, c, 0.0, s], [-s, 0.0, c, 0.0], [0.0, -s, 0.0, c]]
    first, second = _local(rng), _local(rng)
    local = [first[0] + [0.0, 0.0], first[1] + [0.0, 0.0], [0.0, 0.0] + second[0]]
    local.append([0.0, 0.0] + second[1])
    return [[_dot(row, col) for col in zip(*split)] for row in local]


def _one_mode_side_values(count: int = 48):
    """The hashed values, in order, over a seeded corpus of ``count``
    (2+1) states and each one swapped to (1+2): a standard form with a
    thermal ancilla on A, mixed with A's mode by `_two_mode_side`, and B
    mapped by a `_local` symplectic."""
    rng = random.Random(20261021)
    values = []
    for _ in range(count):
        p = _standard_params(rng)
        a, b, c, d = p.a, p.b, p.c, p.d
        n = 1.0 + 2.0 * 10.0 ** rng.uniform(-3.0, 1.0)
        g = [
            [a, 0.0, 0.0, 0.0, c, 0.0],
            [0.0, a, 0.0, 0.0, 0.0, d],
            [0.0, 0.0, n, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, n, 0.0, 0.0],
            [c, 0.0, 0.0, 0.0, b, 0.0],
            [0.0, d, 0.0, 0.0, 0.0, b],
        ]
        s = [row + [0.0, 0.0] for row in _two_mode_side(rng)]
        s += [[0.0] * 4 + [1.0, 0.0], [0.0] * 4 + [0.0, 1.0]]
        state = GaussianState(_congruence(s, g), 2, 1)
        state = apply_gaussian_unitary(state, GaussianUnitary(_local(rng)), "B")
        order = [4, 5, 0, 1, 2, 3]
        swapped = GaussianState([[state._rows[i][j] for j in order] for i in order], 1, 2)
        for out in (state, swapped):
            values += out._correlation_spectrum
            values += [nfg_numeric(out).value, nfg_upper_bound(out)]
    return values


def test_one_mode_side_path_keeps_its_bits():
    values = _one_mode_side_values()
    digest = hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()
    assert digest == PINNED_ONE_MODE_SIDE
