"""The vectorized builders against the per-task oracle (tests/dag/reference.py).

Every builder must produce exactly the arrays the program-order
``DataflowTracker`` walk produces: same tasks, same weights, and the
same dependency lists in the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.optimality import column_sequences
from repro.dag import build_dag
from repro.problems import build_cholesky_dag, build_lu_dag
from repro.schemes import available_schemes, get_scheme
from repro.schemes.elimination import Elimination, EliminationList
from tests.conftest import random_elimination_list
from tests.dag.reference import (reference_cholesky, reference_lu,
                                 reference_qr)


def assert_same(arrays, expected):
    assert arrays.keys() == expected.keys()
    for key, want in expected.items():
        got = arrays[key]
        assert got.dtype == want.dtype, key
        np.testing.assert_array_equal(got, want, err_msg=key)


def scheme(name, p, q):
    """A registered scheme, with a domain size for the domain trees."""
    params = {"bs": min(3, p)} if name in ("plasma-tree", "hadri-tree") \
        else {}
    return get_scheme(name, p, q, **params)


GRIDS = [(p, q) for q in (1, 2, 3, 8) for p in (q, q + 3, 3 * q + 1)]


@pytest.mark.parametrize("family", ["TT", "TS"])
@pytest.mark.parametrize("name", available_schemes())
def test_registered_schemes(name, family):
    for p, q in GRIDS:
        elims = scheme(name, p, q)
        assert_same(build_dag(elims, family).to_arrays(),
                    reference_qr(elims, family))


def test_greedy_40x40():
    elims = get_scheme("greedy", 40, 40)
    assert_same(build_dag(elims, "TT").to_arrays(),
                reference_qr(elims, "TT"))


@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=10_000),
       st.booleans(), st.floats(min_value=0.0, max_value=1.0),
       st.sampled_from(["TT", "TS"]))
@settings(max_examples=150, deadline=None)
def test_random_lists_and_prefixes(p, q, seed, reverse, keep, family):
    """Random valid lists (reverse pivots allowed) and their prefixes:
    a prefix leaves tiles un-zeroed, like the banded lists of the
    optimality search."""
    q = min(p, q)
    rng = np.random.default_rng(seed)
    full = random_elimination_list(rng, p, q, allow_reverse=reverse)
    elims = EliminationList(p, q, full.eliminations[:round(keep * len(full))])
    assert_same(build_dag(elims, family).to_arrays(),
                reference_qr(elims, family))


@pytest.mark.parametrize("family", ["TT", "TS"])
def test_banded_search_lists(family):
    """The banded algorithms :func:`exhaustive_optimal_cp` enumerates."""
    p, q, band = 6, 3, 2
    per_col = [column_sequences(tuple(range(k, min(p, k + band + 1))))
               for k in range(q)]
    for seqs in zip(*(s[:4] for s in per_col)):
        elims = EliminationList(p, q, [Elimination(t, v, k)
                                       for k, seq in enumerate(seqs)
                                       for t, v in seq])
        assert_same(build_dag(elims, family).to_arrays(),
                    reference_qr(elims, family))


def test_lu():
    for p in range(1, 7):
        for q in range(1, p + 1):
            assert_same(build_lu_dag(p, q).to_arrays(), reference_lu(p, q))


def test_cholesky():
    for t in range(1, 9):
        assert_same(build_cholesky_dag(t).to_arrays(), reference_cholesky(t))
