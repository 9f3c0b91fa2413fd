"""Unit and property tests for the Householder substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.householder import larft, reflector
from tests.conftest import random_matrix
from tests.kernels.reference import apply_block_reflector


def _apply_dense(v, tau, x):
    h = np.eye(len(v), dtype=complex) - tau * np.outer(v, v.conj())
    return h @ x


class TestReflector:
    def test_annihilates_tail_real(self, rng):
        x = rng.standard_normal(7)
        v, tau, beta = reflector(x)
        y = _apply_dense(v, tau, x.astype(complex))
        assert np.allclose(y[1:], 0, atol=1e-12)
        assert np.isclose(y[0], beta)

    def test_annihilates_tail_complex(self, rng):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v, tau, beta = reflector(x)
        y = _apply_dense(v, tau, x)
        assert np.allclose(y[1:], 0, atol=1e-12)
        assert np.isclose(y[0], beta)

    def test_norm_preserved(self, rng):
        x = rng.standard_normal(9)
        _, _, beta = reflector(x)
        assert np.isclose(abs(beta), np.linalg.norm(x))

    def test_unit_leading_entry(self, rng):
        v, tau, _ = reflector(rng.standard_normal(4))
        assert v[0] == 1.0

    def test_tau_real_for_complex_input(self, rng):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        _, tau, _ = reflector(x)
        assert isinstance(tau, float)

    def test_zero_vector_gives_identity(self):
        v, tau, beta = reflector(np.zeros(5))
        assert tau == 0.0
        assert beta == 0.0

    def test_length_one_vector(self):
        v, tau, beta = reflector(np.array([3.0]))
        assert np.isclose(abs(beta), 3.0)

    def test_negative_leading_scalar(self):
        v, tau, beta = reflector(np.array([-2.0, 0.0, 0.0]))
        y = _apply_dense(v, tau, np.array([-2.0, 0.0, 0.0], dtype=complex))
        assert np.allclose(y, [beta, 0, 0])
        assert np.isclose(abs(beta), 2.0)

    def test_reflector_is_hermitian_unitary(self, rng):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v, tau, _ = reflector(x)
        h = np.eye(6, dtype=complex) - tau * np.outer(v, v.conj())
        assert np.allclose(h, h.conj().T)
        assert np.allclose(h @ h.conj().T, np.eye(6), atol=1e-12)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_property_annihilation(self, xs):
        x = np.array(xs)
        v, tau, beta = reflector(x)
        y = _apply_dense(v, tau, x.astype(complex))
        scale = max(np.linalg.norm(x), 1.0)
        assert np.allclose(y[1:], 0, atol=1e-8 * scale)
        assert abs(abs(beta) - np.linalg.norm(x)) <= 1e-8 * scale

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_property_tau_range(self, m):
        # For Hermitian reflectors, 1 <= tau <= 2 whenever a reflection
        # happens (tau = 2|u0|^2 / u^H u with |u0| <= ||u||).
        rng = np.random.default_rng(m)
        x = rng.standard_normal(m)
        _, tau, _ = reflector(x)
        assert tau == 0.0 or 1.0 - 1e-12 <= tau <= 2.0 + 1e-12


class TestLarft:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_compact_wy_equals_product(self, rng, k, dtype):
        m = 8
        vs, taus = [], []
        vmat = np.zeros((m, k), dtype=dtype)
        prod = np.eye(m, dtype=complex)
        for j in range(k):
            x = random_matrix(rng, m, 1, dtype)[:, 0]
            x[:j] = 0  # canonical structure: vector j starts at row j
            v, tau, _ = reflector(x[j:])
            vfull = np.zeros(m, dtype=dtype)
            vfull[j:] = v
            vmat[:, j] = vfull
            taus.append(tau)
            h = np.eye(m, dtype=complex) - tau * np.outer(vfull, vfull.conj())
            prod = prod @ h
        t = larft(vmat, np.array(taus))
        wy = np.eye(m, dtype=complex) - vmat @ t @ vmat.conj().T
        assert np.allclose(wy, prod, atol=1e-12)

    def test_t_is_upper_triangular(self, rng):
        vmat = rng.standard_normal((6, 3))
        t = larft(vmat, np.array([1.2, 1.5, 1.1]))
        assert np.allclose(t, np.triu(t))


class TestApplyBlockReflector:
    def test_adjoint_roundtrip(self, rng, dtype):
        m, k = 9, 3
        v = random_matrix(rng, m, k, dtype)
        t = larft(v, np.array([1.0, 1.3, 1.7]))
        c = random_matrix(rng, m, 4, dtype)
        c0 = c.copy()
        apply_block_reflector(v, t, c, adjoint=True)
        # Q (I - V T^H V^H applied back) must restore c when Q unitary;
        # with arbitrary taus Q is not unitary, so instead check the
        # algebraic identity directly
        expected = c0 - v @ (t.conj().T @ (v.conj().T @ c0))
        assert np.allclose(c, expected)
