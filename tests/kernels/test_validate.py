"""Tests for the structural validators and the checked backend."""

import numpy as np
import pytest

from repro.dag import build_dag
from repro.kernels.validate import (assert_lower_part_unchanged,
                                    assert_upper_triangular, checked_backend)
from repro.runtime import ExecOptions, execute_graph
from repro.schemes import greedy, flat_tree
from repro.tiles import TiledMatrix
from tests.conftest import random_matrix


class TestAssertions:
    def test_upper_triangular_passes(self):
        assert_upper_triangular(np.triu(np.ones((4, 4))))

    def test_upper_triangular_fails(self):
        a = np.triu(np.ones((4, 4)))
        a[2, 0] = 1e-3
        with pytest.raises(ValueError, match=r"a\[2,0\]"):
            assert_upper_triangular(a)

    def test_upper_triangular_atol(self):
        a = np.triu(np.ones((4, 4)))
        a[3, 1] = 1e-14
        assert_upper_triangular(a, atol=1e-12)

    def test_lower_unchanged_passes(self):
        a = np.ones((4, 4))
        b = a + np.triu(np.ones((4, 4)))  # only upper modified
        assert_lower_part_unchanged(a, b)

    def test_lower_unchanged_fails(self):
        a = np.ones((4, 4))
        b = a.copy()
        b[3, 0] = 2.0
        with pytest.raises(ValueError, match="strictly-lower"):
            assert_lower_part_unchanged(a, b)


class TestCheckedBackend:
    @pytest.mark.parametrize("base,workers", [
        pytest.param(base, workers,
                     id=base if workers is None else f"{base}-workers{workers}")
        for workers in (None, 2) for base in ("reference", "lapack")])
    def test_full_factorization_passes_checks(self, rng, base, workers):
        """A correct run triggers no contract violation, sequentially
        and on the thread transport."""
        a = random_matrix(rng, 40, 24)
        tiled = TiledMatrix(a.copy(), 8)
        g = build_dag(greedy(tiled.p, tiled.q), "TT")
        execute_graph(g, tiled, ExecOptions(backend=checked_backend(base),
                                            workers=workers), ib=4)
        r = np.triu(tiled.array[:24])
        _, r_np = np.linalg.qr(a)
        assert np.allclose(np.abs(r), np.abs(r_np), atol=1e-11)

    def test_ts_family_passes_checks(self, rng):
        a = random_matrix(rng, 32, 16)
        tiled = TiledMatrix(a.copy(), 8)
        g = build_dag(flat_tree(tiled.p, tiled.q), "TS")
        execute_graph(g, tiled,
                      ExecOptions(backend=checked_backend("reference")), ib=4)

    def test_name(self):
        assert checked_backend("lapack").name == "checked(lapack)"

    def test_detects_clobbering_kernel(self, rng):
        """A deliberately broken ttqrt that wipes the bottom tile's
        lower triangle must be caught."""
        from dataclasses import replace
        from repro.kernels.backend import get_backend

        base = get_backend("reference")

        def bad_ttqrt(r, r_bot, ib):
            out = base.ttqrt(r, r_bot, ib)
            r_bot[-1, 0] += 1.0  # clobber the co-resident V region
            return out

        broken = replace(base, name="broken", ttqrt=bad_ttqrt)
        checked = checked_backend(broken)
        n = 6
        r0 = np.triu(random_matrix(rng, n, n))
        b0 = np.triu(random_matrix(rng, n, n))
        with pytest.raises(ValueError, match="clobbered"):
            checked.ttqrt(r0, b0, 3)

    def test_detects_nonfinite_geqrt(self, rng):
        checked = checked_backend("reference")
        a = random_matrix(rng, 4, 4)
        a[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            checked.geqrt(a, 2)
