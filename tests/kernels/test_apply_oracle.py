"""The update kernels against the per-tile oracle, bit for bit.

``repro.kernels.unmqr``/``tsmqr``/``ttmqr`` are the stacked applies of
:mod:`repro.kernels.batched` on one-tile views.  Both the public names
and the stacked applies (at batch 1 and 3, with 2-D ``T`` blocks
broadcast over the stack or 3-D blocks per slice, and on the
``(runs, length, ...)`` stacks of the group executor's chunks, each
run's V and ``T`` broadcast over its length) must give the exact
bytes of the per-tile loops in :mod:`tests.kernels.reference`, for
every dtype, square and ragged tiles, both sides and both directions.
"""

import numpy as np
import pytest

from repro.kernels import geqrt, tsmqr, tsqrt, ttmqr, ttqrt, unmqr
from repro.kernels.batched import (tsmqr_batched, ttmqr_batched,
                                   unmqr_batched)
from repro.kernels.geqrt import TFactor
from tests.conftest import random_matrix
from tests.kernels import reference

NB, IB, RAG = 8, 3, 5
DTYPES = [np.float64, np.complex128, np.float32, np.complex64]
#: (factored tile height, width): square, ragged-row, ragged-column
SHAPES = {"square": (NB, NB), "ragged_row": (RAG, NB),
          "ragged_col": (NB, RAG)}
WIDTHS = (1, NB, 2 * NB + 1)

KERNELS = {
    "unmqr": (unmqr, unmqr_batched, reference.unmqr),
    "tsmqr": (tsmqr, tsmqr_batched, reference.tsmqr),
    "ttmqr": (ttmqr, ttmqr_batched, reference.ttmqr),
}


def factor_tiles(rng, kernel, shape, dtype, nbatch):
    """``nbatch`` per-tile factorizations: the V tiles and their T."""
    h, w = shape
    vs, ts = [], []
    for _ in range(nbatch):
        if kernel == "unmqr":
            v = random_matrix(rng, h, w, dtype)
            t = geqrt(v, IB)
        else:
            r = np.triu(random_matrix(rng, w, w, dtype))
            # full bottom tile: for TT its strictly lower part stands in
            # for co-resident GEQRT vectors, which the apply must mask
            v = random_matrix(rng, h, w, dtype)
            t = (tsqrt if kernel == "tsmqr" else ttqrt)(r, v, IB)
        vs.append(v)
        ts.append(t)
    return vs, ts


def operands(rng, kernel, shape, side, width, dtype, nbatch):
    """The ``C`` stacks one apply updates (top then bottom for TS/TT).

    The TS/TT top tile is a full ``NB`` tile, deeper than the
    ``w``-column factorization on ragged-column shapes."""
    h = shape[0]
    dims = [h] if kernel == "unmqr" else [NB, h]
    return [np.stack([random_matrix(rng, *((d, width) if side == "L"
                                           else (width, d)), dtype)
                      for _ in range(nbatch)]) for d in dims]


def assert_oracle(ref_fn, vs, ts, cs, got, adjoint, side):
    """Slice ``b`` of ``got`` equals the oracle on slice ``b`` of ``cs``
    with V/T ``vs[b]``/``ts[b]`` (or the shared ``vs[0]``/``ts[0]``)."""
    for b in range(cs[0].shape[0]):
        want = [c[b].copy() for c in cs]
        k = b if len(vs) > 1 else 0
        ref_fn(vs[k], ts[k], *want, adjoint=adjoint, side=side)
        for g, x in zip(got, want):
            assert np.array_equal(g[b], x)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_matches_oracle(rng, kernel, side, shape, dtype):
    tile_fn, stacked_fn, ref_fn = KERNELS[kernel]
    for adjoint in (True, False):
        for width in WIDTHS:
            # the public per-tile name
            vs, ts = factor_tiles(rng, kernel, SHAPES[shape], dtype, 1)
            cs = operands(rng, kernel, SHAPES[shape], side, width, dtype, 1)
            got = [c.copy() for c in cs]
            tile_fn(vs[0], ts[0], *(g[0] for g in got), adjoint=adjoint,
                    side=side)
            assert_oracle(ref_fn, vs, ts, cs, got, adjoint, side)
            for nbatch in (1, 3):
                cs = operands(rng, kernel, SHAPES[shape], side, width,
                              dtype, nbatch)
                # one V tile, its 2-D T broadcast over the stack, and
                # the same T as a (1, jb, jb) stack
                vs, ts = factor_tiles(rng, kernel, SHAPES[shape], dtype, 1)
                for t in (ts[0], TFactor([b[None] for b in ts[0].blocks],
                                         IB)):
                    got = [c.copy() for c in cs]
                    stacked_fn(vs[0][None], t, *got, adjoint=adjoint,
                               side=side)
                    assert_oracle(ref_fn, vs, ts, cs, got, adjoint, side)
                # a V tile and a 3-D T slice per C slice
                vs, ts = factor_tiles(rng, kernel, SHAPES[shape], dtype,
                                      nbatch)
                t3 = TFactor([np.stack(blks)
                              for blks in zip(*(t.blocks for t in ts))], IB)
                got = [c.copy() for c in cs]
                stacked_fn(np.stack(vs), t3, *got, adjoint=adjoint,
                           side=side)
                assert_oracle(ref_fn, vs, ts, cs, got, adjoint, side)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_runs_broadcast_over_4d_stacks(rng, kernel, side, shape, dtype):
    """``u`` runs of ``L`` tiles: a ``(u, L, ...)`` C stack with V and
    the 3-D T blocks as ``(u, 1, ...)`` stacks broadcast over ``L``."""
    _, stacked_fn, ref_fn = KERNELS[kernel]
    u, L = 3, 2
    for adjoint in (True, False):
        for width in WIDTHS:
            vs, ts = factor_tiles(rng, kernel, SHAPES[shape], dtype, u)
            cs = operands(rng, kernel, SHAPES[shape], side, width, dtype,
                          u * L)
            t4 = TFactor([np.stack(blks)[:, None]
                          for blks in zip(*(t.blocks for t in ts))], IB)
            got = [c.reshape(u, L, *c.shape[1:]).copy() for c in cs]
            stacked_fn(np.stack(vs)[:, None], t4, *got, adjoint=adjoint,
                       side=side)
            # slice b of the flattened stacks belongs to run b // L
            assert_oracle(ref_fn, [vs[b // L] for b in range(u * L)],
                          [ts[b // L] for b in range(u * L)], cs,
                          [g.reshape(u * L, *g.shape[2:]) for g in got],
                          adjoint, side)


@pytest.mark.parametrize("kernel", KERNELS)
class TestRejects:
    def test_bad_side(self, rng, kernel):
        tile_fn, stacked_fn, _ = KERNELS[kernel]
        vs, ts = factor_tiles(rng, kernel, (NB, NB), np.float64, 1)
        cs = operands(rng, kernel, (NB, NB), "L", NB, np.float64, 1)
        with pytest.raises(ValueError, match="side"):
            tile_fn(vs[0], ts[0], *(c[0] for c in cs), side="X")
        with pytest.raises(ValueError, match="side"):
            stacked_fn(vs[0][None], ts[0], *cs, side="X")

    def test_wrong_panel_count(self, rng, kernel):
        tile_fn, stacked_fn, _ = KERNELS[kernel]
        vs, ts = factor_tiles(rng, kernel, (NB, NB), np.float64, 1)
        cs = operands(rng, kernel, (NB, NB), "L", NB, np.float64, 1)
        short = TFactor(ts[0].blocks[:-1], IB)
        with pytest.raises(ValueError, match="blocks"):
            tile_fn(vs[0], short, *(c[0] for c in cs))
        with pytest.raises(ValueError, match="blocks"):
            stacked_fn(vs[0][None], short, *cs)
