"""Cross-checks between the reference and LAPACK kernel backends."""

import numpy as np
import pytest

from repro.kernels.backend import BACKENDS, get_backend
from tests.conftest import random_matrix


@pytest.fixture(params=["reference", "lapack"])
def backend(request):
    return get_backend(request.param)


class TestBackendRegistry:
    def test_names(self):
        assert set(BACKENDS) == {"reference", "lapack"}

    def test_get_by_instance(self):
        bk = get_backend("lapack")
        assert get_backend(bk) is bk

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("cuda")


@pytest.mark.parametrize("n,ib", [(6, 3), (8, 8), (5, 2), (7, 4), (1, 1)])
class TestBackendCorrectness:
    def test_geqrt_unmqr(self, rng, dtype, backend, n, ib):
        a = random_matrix(rng, n, n, dtype)
        w = a.copy()
        t = backend.geqrt(w, ib)
        c = a.copy()
        backend.unmqr(w, t, c)
        assert np.allclose(c, np.triu(w), atol=1e-11)

    def test_tsqrt_tsmqr(self, rng, dtype, backend, n, ib):
        r0 = np.triu(random_matrix(rng, n, n, dtype))
        b0 = random_matrix(rng, n, n, dtype)
        r2, v = r0.copy(), b0.copy()
        t = backend.tsqrt(r2, v, ib)
        ct, cb = r0.copy(), b0.copy()
        backend.tsmqr(v, t, ct, cb)
        assert np.allclose(ct, r2, atol=1e-11)
        assert np.allclose(cb, 0, atol=1e-11)

    def test_ttqrt_ttmqr(self, rng, dtype, backend, n, ib):
        r0 = np.triu(random_matrix(rng, n, n, dtype))
        g = np.tril(random_matrix(rng, n, n, dtype), -1)
        b0 = np.triu(random_matrix(rng, n, n, dtype))
        r2, v = r0.copy(), (b0 + g).copy()
        t = backend.ttqrt(r2, v, ib)
        assert np.allclose(np.tril(v, -1), g), "lower triangle clobbered"
        ct, cb = r0.copy(), b0.copy()
        backend.ttmqr(v, t, ct, cb)
        assert np.allclose(ct, r2, atol=1e-11)
        assert np.allclose(np.triu(cb), 0, atol=1e-11)


class TestCrossBackendAgreement:
    """Both backends compute *a* QR; the R factors agree up to column
    signs/phases (different reflector conventions)."""

    @pytest.mark.parametrize("n,ib", [(6, 3), (8, 4)])
    def test_geqrt_r_abs_match(self, rng, dtype, n, ib):
        a = random_matrix(rng, n, n, dtype)
        ws = {}
        for name in BACKENDS:
            w = a.copy()
            get_backend(name).geqrt(w, ib)
            ws[name] = np.abs(np.triu(w))
        assert np.allclose(ws["reference"], ws["lapack"], atol=1e-10)

    @pytest.mark.parametrize("mb", [4, 6, 9])
    def test_tsqrt_r_abs_match(self, rng, dtype, mb):
        n, ib = 6, 3
        r0 = np.triu(random_matrix(rng, n, n, dtype))
        b0 = random_matrix(rng, mb, n, dtype)
        rs = {}
        for name in BACKENDS:
            r2, v = r0.copy(), b0.copy()
            get_backend(name).tsqrt(r2, v, ib)
            rs[name] = np.abs(r2)
        assert np.allclose(rs["reference"], rs["lapack"], atol=1e-10)

    def test_ragged_tt_tall_tile(self, rng, dtype):
        """TT kernels on a tile taller than the panel width (the ragged
        column case that exercised the LAPACK pentagon slicing)."""
        n, mb, ib = 5, 8, 3
        r0 = np.triu(random_matrix(rng, n, n, dtype))
        b0 = np.triu(random_matrix(rng, mb, n, dtype))
        for name in BACKENDS:
            r2, v = r0.copy(), b0.copy()
            t = get_backend(name).ttqrt(r2, v, ib)
            ct = r0.copy()
            cb = b0.copy()
            get_backend(name).ttmqr(v, t, ct, cb)
            assert np.allclose(ct, r2, atol=1e-10), name
            assert np.allclose(np.triu(cb[:n]), 0, atol=1e-10), name


@pytest.mark.parametrize("real", [np.float64, np.float32],
                         ids=["float64", "float32"])
class TestReferenceRowSigns:
    """For real dtypes the LAPACK factor kernels reflect a column whose
    tail is already zero (``?larfg`` leaves it alone) like the reference
    kernels, so R agrees entry for entry, not only in magnitude, and the
    returned T still applies the factorization's Q."""

    def tol(self, real):
        return 1e-12 if real == np.float64 else 1e-5

    @pytest.mark.parametrize("m,n,ib", [(8, 8, 4), (6, 6, 3), (5, 8, 4),
                                        (8, 5, 2), (1, 1, 1)])
    def test_geqrt(self, rng, real, m, n, ib):
        a = random_matrix(rng, m, n, real)
        # columns 0 and 1 have no entries below row 1, so after the
        # first reflector column 1's tail is exactly zero
        a[2:, :2] = 0.0
        ws = {}
        for name in BACKENDS:
            w = a.copy()
            t = get_backend(name).geqrt(w, ib)
            c = a.copy()
            get_backend(name).unmqr(w, t, c)
            k = min(m, n)
            assert np.allclose(c[:k], np.triu(w)[:k], atol=self.tol(real))
            ws[name] = np.triu(w)
        assert np.allclose(ws["lapack"], ws["reference"], atol=self.tol(real))

    @pytest.mark.parametrize("kernel", ["ts", "tt"])
    def test_stacked_pair(self, rng, real, kernel):
        n, mb, ib = 6, 6, 4
        r0 = np.triu(random_matrix(rng, n, n, real))
        r0[1, 1] = 0.0  # a zero column: the identity in both libraries
        b0 = random_matrix(rng, mb, n, real)
        b0[:, :3] = 0.0  # three zero tails in the first panel
        if kernel == "tt":
            g = np.tril(random_matrix(rng, mb, n, real), -1)
            b0 = np.triu(b0) + g
        rs = {}
        for name in BACKENDS:
            bk = get_backend(name)
            factor, apply = ((bk.tsqrt, bk.tsmqr) if kernel == "ts"
                             else (bk.ttqrt, bk.ttmqr))
            r2, v = r0.copy(), b0.copy()
            t = factor(r2, v, ib)
            ct, cb = r0.copy(), b0.copy()
            if kernel == "tt":
                cb = np.triu(cb)
                assert np.array_equal(np.tril(v, -1), g), name
            apply(v, t, ct, cb)
            assert np.allclose(ct, r2, atol=self.tol(real)), name
            rs[name] = r2
        assert np.allclose(rs["lapack"], rs["reference"], atol=self.tol(real))
