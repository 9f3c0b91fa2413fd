"""Batched kernels vs the per-tile oracle loops, slice by slice.

Each batch slice of a stacked factor kernel must agree with the
per-tile loops of :mod:`tests.kernels.reference` to rounding (not
bitwise — the kernels form norms and ``T`` with other reductions);
the applies here run on those factors and are compared with the
oracle's applies.  The public per-tile kernels are the stacked ones,
so comparing with them would test the kernel against itself;
``test_factor_oracle`` and ``test_apply_oracle`` pin their bytes.
Ragged tiles are exercised through the zero-padding contract: a tile
embedded in a zero-padded ``nb x nb`` slot must produce the reference
result of the *unpadded* tile in the valid region, and
:func:`~tests.kernels.reference.task_tfactor` must slice back a
``TFactor`` the per-tile kernels accept.
"""

import numpy as np
import pytest

from repro.kernels.batched import (
    geqrt_batched,
    tsmqr_batched,
    tsqrt_batched,
    ttmqr_batched,
    ttqrt_batched,
    unmqr_batched,
)
from tests.conftest import random_matrix
from tests.kernels import reference
from tests.kernels.reference import task_tfactor

NB = 8
IBS = [1, NB // 2, NB]
ATOL = 1e-12


def tile_batch(rng, nbatch, dtype, m=NB, n=NB):
    return np.stack([random_matrix(rng, m, n, dtype) for _ in range(nbatch)])


def pad(a, nb=NB):
    out = np.zeros((nb, nb), dtype=a.dtype)
    out[: a.shape[0], : a.shape[1]] = a
    return out


class TestGeqrtBatched:
    @pytest.mark.parametrize("ib", IBS)
    def test_matches_reference(self, rng, dtype, ib):
        a = tile_batch(rng, 5, dtype)
        ref = [np.array(a[i]) for i in range(5)]
        bt = geqrt_batched(a, ib)
        for i in range(5):
            t = reference.geqrt(ref[i], ib)
            assert np.allclose(a[i], ref[i], atol=ATOL)
            tf = task_tfactor(bt, i, NB)
            for bb, rb in zip(tf.blocks, t.blocks):
                assert np.allclose(bb, rb, atol=ATOL)

    @pytest.mark.parametrize("shape", [(5, 3), (NB, 5), (6, NB)])
    def test_padded_matches_unpadded(self, rng, dtype, shape):
        h, w = shape
        tiles = [np.asarray(random_matrix(rng, h, w, dtype))
                 for _ in range(3)]
        a = np.stack([pad(t) for t in tiles])
        bt = geqrt_batched(a, 4)
        for i, t0 in enumerate(tiles):
            ref = np.array(t0)
            t = reference.geqrt(ref, 4)
            assert np.allclose(a[i, :h, :w], ref, atol=ATOL)
            # padded rows stay exactly zero
            assert np.all(a[i, h:, :] == 0.0)
            tf = task_tfactor(bt, i, min(h, w))
            assert len(tf.blocks) == len(t.blocks)
            for bb, rb in zip(tf.blocks, t.blocks):
                assert np.allclose(bb, rb, atol=ATOL)


class TestUnmqrBatched:
    @pytest.mark.parametrize("ib", IBS)
    @pytest.mark.parametrize("adjoint", [True, False])
    def test_matches_reference(self, rng, dtype, ib, adjoint):
        v = tile_batch(rng, 4, dtype)
        bt = geqrt_batched(v, ib)
        c = tile_batch(rng, 4, dtype)
        ref = [np.array(c[i]) for i in range(4)]
        unmqr_batched(v, bt, c, adjoint=adjoint)
        for i in range(4):
            reference.unmqr(v[i], task_tfactor(bt, i, NB), ref[i],
                            adjoint=adjoint)
            assert np.allclose(c[i], ref[i], atol=ATOL)


class TestStackedBatched:
    @pytest.mark.parametrize("ib", IBS)
    def test_tsqrt_tsmqr_match_reference(self, rng, dtype, ib):
        nbatch = 4
        r = np.stack([np.triu(random_matrix(rng, NB, NB, dtype))
                      for _ in range(nbatch)])
        b = tile_batch(rng, nbatch, dtype)
        r_ref = [np.array(r[i]) for i in range(nbatch)]
        b_ref = [np.array(b[i]) for i in range(nbatch)]
        bt = tsqrt_batched(r, b, ib)
        tfs = []
        for i in range(nbatch):
            t = reference.tsqrt(r_ref[i], b_ref[i], ib)
            tfs.append(t)
            assert np.allclose(r[i], r_ref[i], atol=ATOL)
            assert np.allclose(b[i], b_ref[i], atol=ATOL)
            tf = task_tfactor(bt, i, NB)
            for bb, rb in zip(tf.blocks, t.blocks):
                assert np.allclose(bb, rb, atol=ATOL)
        ct = tile_batch(rng, nbatch, dtype)
        cb = tile_batch(rng, nbatch, dtype)
        ct_ref = [np.array(ct[i]) for i in range(nbatch)]
        cb_ref = [np.array(cb[i]) for i in range(nbatch)]
        tsmqr_batched(b, bt, ct, cb)
        for i in range(nbatch):
            reference.tsmqr(b_ref[i], tfs[i], ct_ref[i], cb_ref[i])
            assert np.allclose(ct[i], ct_ref[i], atol=ATOL)
            assert np.allclose(cb[i], cb_ref[i], atol=ATOL)

    @pytest.mark.parametrize("ib", IBS)
    def test_ttqrt_ttmqr_match_reference(self, rng, dtype, ib):
        nbatch = 4
        r = np.stack([np.triu(random_matrix(rng, NB, NB, dtype))
                      for _ in range(nbatch)])
        b = tile_batch(rng, nbatch, dtype)  # full tiles: lower = V junk
        r_ref = [np.array(r[i]) for i in range(nbatch)]
        b_ref = [np.array(b[i]) for i in range(nbatch)]
        bt = ttqrt_batched(r, b, ib)
        tfs = []
        for i in range(nbatch):
            t = reference.ttqrt(r_ref[i], b_ref[i], ib)
            tfs.append(t)
            assert np.allclose(r[i], r_ref[i], atol=ATOL)
            assert np.allclose(b[i], b_ref[i], atol=ATOL)
        ct = tile_batch(rng, nbatch, dtype)
        cb = tile_batch(rng, nbatch, dtype)
        ct_ref = [np.array(ct[i]) for i in range(nbatch)]
        cb_ref = [np.array(cb[i]) for i in range(nbatch)]
        ttmqr_batched(b, bt, ct, cb)
        for i in range(nbatch):
            reference.ttmqr(b_ref[i], tfs[i], ct_ref[i], cb_ref[i])
            assert np.allclose(ct[i], ct_ref[i], atol=ATOL)
            assert np.allclose(cb[i], cb_ref[i], atol=ATOL)

    def test_ttqrt_preserves_lower_triangle(self, rng, dtype):
        """The strictly lower triangle of the bottom stack holds the
        tile's GEQRT vectors (V=NODEP) and must never be touched."""
        r = np.stack([np.triu(random_matrix(rng, NB, NB, dtype))
                      for _ in range(3)])
        b = tile_batch(rng, 3, dtype)
        sentinel = np.tril(b.copy(), -1)
        ttqrt_batched(r, b, 4)
        assert np.array_equal(np.tril(b, -1), sentinel)

    @pytest.mark.parametrize("w", [3, 5, NB])
    def test_padded_stacked_matches_unpadded(self, rng, dtype, w):
        """Ragged-width columns: zero padding reproduces the unpadded
        factorization in the valid region (padded cols give tau = 0)."""
        nbatch = 3
        rt = [np.triu(random_matrix(rng, w, w, dtype)) for _ in range(nbatch)]
        bt_ = [np.asarray(random_matrix(rng, NB, w, dtype))
               for _ in range(nbatch)]
        r = np.stack([pad(t) for t in rt])
        b = np.stack([pad(t) for t in bt_])
        t = tsqrt_batched(r, b, 4)
        for i in range(nbatch):
            ref_r, ref_b = np.array(rt[i]), np.array(bt_[i])
            t_ref = reference.tsqrt(ref_r, ref_b, 4)
            assert np.allclose(r[i, :w, :w], ref_r, atol=ATOL)
            assert np.allclose(b[i, :, :w], ref_b, atol=ATOL)
            assert np.all(b[i, :, w:] == 0.0)
            tf = task_tfactor(t, i, w)
            assert len(tf.blocks) == len(t_ref.blocks)
            for bb, rb in zip(tf.blocks, t_ref.blocks):
                assert np.allclose(bb, rb, atol=ATOL)
