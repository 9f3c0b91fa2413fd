"""Tests for the GEQRT/UNMQR reference kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import geqrt, unmqr
from repro.kernels.geqrt import panel_starts
from tests.conftest import random_matrix


class TestPanelStarts:
    def test_exact_division(self):
        assert panel_starts(8, 4) == [(0, 4), (4, 4)]

    def test_remainder(self):
        assert panel_starts(7, 3) == [(0, 3), (3, 3), (6, 1)]

    def test_ib_larger_than_n(self):
        assert panel_starts(3, 10) == [(0, 3)]

    def test_invalid_ib(self):
        with pytest.raises(ValueError):
            panel_starts(5, 0)


@pytest.mark.parametrize("m,n,ib", [
    (8, 8, 8), (8, 8, 3), (8, 8, 1), (12, 6, 4), (5, 9, 2), (1, 1, 1),
    (16, 16, 5), (7, 7, 4),
])
class TestGeqrt:
    def test_reconstruction(self, rng, dtype, m, n, ib):
        """Q^H A == R: apply the factored transformation to the original."""
        a = random_matrix(rng, m, n, dtype)
        work = a.copy()
        t = geqrt(work, ib)
        c = a.copy()
        unmqr(work, t, c)
        # below-diagonal of Q^H A must vanish; upper part must equal R
        assert np.allclose(c, np.triu(c), atol=1e-11 * max(m, n))
        assert np.allclose(np.triu(c), np.triu(work), atol=1e-11 * max(m, n))

    def test_q_roundtrip(self, rng, dtype, m, n, ib):
        """Applying Q then Q^H is the identity."""
        a = random_matrix(rng, m, n, dtype)
        work = a.copy()
        t = geqrt(work, ib)
        c = random_matrix(rng, m, 3, dtype)
        c0 = c.copy()
        unmqr(work, t, c, adjoint=True)
        unmqr(work, t, c, adjoint=False)
        assert np.allclose(c, c0, atol=1e-11)


class TestGeqrtDetails:
    def test_ib_independence(self, rng):
        """R must not depend on the inner blocking size."""
        a = random_matrix(rng, 10, 10)
        rs = []
        for ib in (1, 2, 5, 10):
            w = a.copy()
            geqrt(w, ib)
            rs.append(np.triu(w))
        for r in rs[1:]:
            assert np.allclose(r, rs[0], atol=1e-12)

    def test_t_block_count(self, rng):
        w = random_matrix(rng, 9, 9)
        t = geqrt(w, 4)
        assert len(t.blocks) == 3  # panels of 4, 4, 1
        assert t.blocks[0].shape == (4, 4)
        assert t.blocks[2].shape == (1, 1)

    def test_t_blocks_upper_triangular(self, rng):
        w = random_matrix(rng, 8, 8)
        t = geqrt(w, 4)
        for blk in t.blocks:
            assert np.allclose(blk, np.triu(blk))

    def test_unmqr_rejects_wrong_t(self, rng):
        w = random_matrix(rng, 8, 8)
        t = geqrt(w, 4)
        t.blocks.pop()
        with pytest.raises(ValueError, match="blocks"):
            unmqr(w, t, random_matrix(rng, 8, 2))

    def test_deterministic(self, rng):
        a = random_matrix(rng, 6, 6)
        w1, w2 = a.copy(), a.copy()
        geqrt(w1, 3)
        geqrt(w2, 3)
        assert np.array_equal(w1, w2)

    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_property_orthogonal_factorization(self, m, n, ib):
        rng = np.random.default_rng(m * 100 + n * 10 + ib)
        a = rng.standard_normal((m, n))
        w = a.copy()
        t = geqrt(w, ib)
        c = a.copy()
        unmqr(w, t, c)
        assert np.allclose(np.tril(c, -1), 0, atol=1e-9)
        # norm of each column is preserved by the orthogonal transform
        assert np.allclose(np.linalg.norm(c, axis=0),
                           np.linalg.norm(a, axis=0), atol=1e-9)
