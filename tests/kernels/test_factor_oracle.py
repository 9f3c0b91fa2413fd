"""The factor kernels against the per-tile oracle, and slice by slice.

``repro.kernels.geqrt``, ``tsqrt`` and ``ttqrt`` are written once over
any leading batch shape (:mod:`repro.kernels.batched`).  They must

* agree with the per-tile loops of :mod:`tests.kernels.reference` on
  ``R``, ``V`` and ``T`` to rounding — the kernels form norms and
  ``T`` with other reductions, so not bitwise;
* compute each slice alone: a tile gives the same bytes of ``R``,
  ``V`` and ``T`` factored as a 2-D array, as a strided view into a
  larger matrix, as a one-slot stack and as a slice of a 6-tile stack.
  This is what lets every transport factor a group of any size and
  still return the bytes of sequential task mode.
"""

import numpy as np
import pytest

from repro.kernels import TFactor, geqrt, tsqrt, ttqrt
from repro.kernels.batched import geqrt_batched, tsqrt_batched, ttqrt_batched
from tests.conftest import random_matrix
from tests.kernels import reference
from tests.kernels.reference import task_tfactor

DTYPES = [np.float64, np.complex128, np.float32, np.complex64]
#: norm-wise relative distance from the oracle per dtype
TOL = {np.float64: 1e-12, np.complex128: 1e-12, np.float32: 1e-4,
       np.complex64: 1e-4}
BLOCKINGS = [(8, 4), (32, 8), (64, 16), (16, 16), (12, 5)]
KERNELS = {"geqrt": (geqrt, reference.geqrt),
           "tsqrt": (tsqrt, reference.tsqrt),
           "ttqrt": (ttqrt, reference.ttqrt)}
#: slice of the 6-tile stack the tile sits in
SLOT = 4

dtypes = pytest.mark.parametrize("dtype", DTYPES,
                                 ids=lambda d: np.dtype(d).name)
blockings = pytest.mark.parametrize("nb,ib", BLOCKINGS,
                                    ids=[f"{n}-{i}" for n, i in BLOCKINGS])
kernels = pytest.mark.parametrize("kernel", KERNELS)


def operands(rng, kernel, dtype, h, w):
    """The tiles one factor call takes: ``[a]`` for GEQRT, ``[r, b]``
    for TS/TT.  TT's bottom tile is full: its strictly lower part
    stands in for the tile's own GEQRT vectors, which TTQRT must
    neither read nor write."""
    a = random_matrix(rng, h, w, dtype)
    if kernel == "geqrt":
        return [a]
    return [np.triu(random_matrix(rng, w, w, dtype)), a]


def factor(kernel, ops, ib):
    """Run the kernel in place; return its ``T`` blocks."""
    return KERNELS[kernel][0](*ops, ib).blocks


def rel(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


def pad(x, nb):
    out = np.zeros(x.shape[:-2] + (nb, nb), dtype=x.dtype)
    out[..., : x.shape[-2], : x.shape[-1]] = x
    return out


@kernels
@dtypes
@blockings
def test_matches_the_oracle(rng, kernel, dtype, nb, ib):
    ops = operands(rng, kernel, dtype, nb, nb)
    want = [x.copy() for x in ops]
    t = factor(kernel, ops, ib)
    t_want = KERNELS[kernel][1](*want, ib).blocks
    for got, x in zip(ops, want):  # R and V
        assert rel(got, x) < TOL[dtype]
    assert len(t) == len(t_want)
    for got, x in zip(t, t_want):
        assert got.shape == x.shape
        assert rel(got, x) < TOL[dtype]


@kernels
@dtypes
@pytest.mark.parametrize("shape", [(5, 8), (8, 5), (3, 3)],
                         ids=["short", "narrow", "corner"])
def test_padded_tile_matches_the_oracle_unpadded(rng, kernel, dtype, shape):
    """A ragged tile zero-padded to its slot factors like the unpadded
    tile in the valid region; the padding stays zero."""
    nb, ib = 8, 3
    h, w = shape
    ops = operands(rng, kernel, dtype, h, w)
    want = [x.copy() for x in ops]
    padded = [pad(x, nb) for x in ops]
    t = factor(kernel, padded, ib)
    t_want = KERNELS[kernel][1](*want, ib)
    for got, x in zip(padded, want):
        assert rel(got[: x.shape[0], : x.shape[1]], x) < TOL[dtype]
        got[: x.shape[0], : x.shape[1]] = 0
        assert not got.any()
    k = min(h, w) if kernel == "geqrt" else w
    t_got = task_tfactor(TFactor([b[None] for b in t], ib), 0, k)
    assert len(t_got.blocks) == len(t_want.blocks)
    for got, x in zip(t_got.blocks, t_want.blocks):
        assert rel(got, x) < TOL[dtype]


@kernels
@dtypes
@pytest.mark.parametrize("case", ["zero column", "zero leading entry"])
def test_zero_norm_and_zero_alpha_columns(rng, kernel, dtype, case):
    """A zero column gives the identity reflector (``tau = 0``) in its
    own slice only; a zero leading entry takes phase 1.  Both match
    the oracle, here in slice 1 of a 3-tile stack."""
    nb, ib, j = 8, 4, 2
    tiles = [operands(rng, kernel, dtype, nb, nb) for _ in range(3)]
    top = 0 if kernel == "geqrt" else 1
    if case == "zero column":
        for x in tiles[1]:
            x[:, j] = 0
    else:
        # the leading entry of column 0's reflector: a[0, 0] or r[0, 0]
        tiles[1][0][0, 0] = 0
        j = 0
    want = [x.copy() for x in tiles[1]]
    stacks = [np.stack(xs) for xs in zip(*tiles)]
    t = factor(kernel, stacks, ib)
    t_want = KERNELS[kernel][1](*want, ib).blocks
    for s, x in zip(stacks, want):
        assert rel(s[1], x) < TOL[dtype]
    for got, x in zip(t, t_want):
        assert rel(got[1], x) < TOL[dtype]
    tau = t[j // ib][:, j % ib, j % ib]
    if case == "zero column":
        assert tau[1] == 0 and tau[0] != 0 and tau[2] != 0
        assert not stacks[top][1][:, j].any()
    else:
        assert tau[1] == 1  # beta = -||x||, u0 = ||x||
    assert np.isfinite(stacks[top]).all()


def layouts(kernel, ops, nb):
    """The one tile (pair) in four layouts, as in-place operands and a
    reader of each operand's tile after the call: 2-D arrays, strided
    views into one larger matrix, one-slot stacks, and slot ``SLOT``
    of 6-tile stacks."""
    rng = np.random.default_rng(7)
    out = {"2-D": ([x.copy() for x in ops], lambda x: x)}
    big = random_matrix(rng, 3 * nb, 3 * nb, ops[0].dtype)
    views = []
    for i, x in enumerate(ops):
        # tiles of one tile column, as the tile grid lays them out
        view = big[2 * i * nb: 2 * i * nb + nb, nb: 2 * nb]
        view[...] = x
        views.append(view)
    out["view"] = (views, lambda x: x)
    out["one slot"] = ([x[None].copy() for x in ops], lambda x: x[0])
    stacks = []
    for x in ops:
        s = np.stack([operands(rng, kernel, x.dtype, nb, nb)[-1]
                      for _ in range(6)])
        s[SLOT] = x
        stacks.append(s)
    out["stack"] = (stacks, lambda x: x[SLOT])
    return out


def assert_layouts_agree(kernel, ops, nb, ib):
    """R, V and T have the same bytes in every layout."""
    got = {}
    for name, (xs, tile) in layouts(kernel, ops, nb).items():
        t = factor(kernel, xs, ib)
        got[name] = [tile(x).tobytes() for x in [*xs, *t]]
    first = got.pop("2-D")
    for name, other in got.items():
        assert other == first, name


@kernels
@dtypes
@blockings
def test_slice_alone_bytes(rng, kernel, dtype, nb, ib):
    assert_layouts_agree(kernel, operands(rng, kernel, dtype, nb, nb),
                         nb, ib)


@kernels
@dtypes
def test_padded_tile_slice_alone_bytes(rng, kernel, dtype):
    nb = 12
    assert_layouts_agree(
        kernel, [pad(x, nb) for x in operands(rng, kernel, dtype, 7, 9)],
        nb, 5)


@dtypes
@blockings
def test_ttqrt_leaves_the_strict_lower_triangle(rng, dtype, nb, ib):
    """The bottom tile's strictly lower triangle holds its GEQRT
    vectors (the V=NODEP relaxation of [12]): every layout leaves it
    bit for bit."""
    ops = operands(rng, "ttqrt", dtype, nb, nb)
    lower = np.tril(ops[1], -1)
    for name, (xs, tile) in layouts("ttqrt", ops, nb).items():
        ttqrt(*xs, ib)
        assert np.array_equal(np.tril(tile(xs[1]), -1), lower), name


def test_stacked_names_are_the_kernels():
    """perfbench times the stacked names; they are the one kernel."""
    assert geqrt_batched is geqrt
    assert tsqrt_batched is tsqrt
    assert ttqrt_batched is ttqrt
