"""Asap and Grasap against the timed-dataflow oracle, byte for byte.

:func:`repro.schemes.asap._run_dynamic` keeps one finish time per tile
instead of the read and write stamps of every resource.  For every
grid with ``p <= 12`` (each ``q <= p``, both pairings, Asap and
Grasap(k) for every ``k = 0..q``) and for the sweep's larger grids,
the elimination list, the zero table's bytes and the makespan must
equal those of the loop in :mod:`tests.schemes.reference`.
"""

import pytest

from repro.schemes.asap import asap, grasap
from tests.schemes import reference

PAIRINGS = ("bottom", "spread")


def _same(got, want) -> None:
    assert [tuple(e) for e in got.elims] == [tuple(e) for e in want.elims]
    assert got.elims.name == want.elims.name
    assert got.zero_table.dtype == want.zero_table.dtype
    assert got.zero_table.tobytes() == want.zero_table.tobytes()
    assert type(got.makespan) is type(want.makespan)
    assert got.makespan == want.makespan


def _check_grid(p: int, q: int, ks) -> int:
    cases = 0
    for pairing in PAIRINGS:
        _same(asap(p, q, pairing), reference.reference_asap(p, q, pairing))
        cases += 1
        for k in ks:
            _same(grasap(p, q, k, pairing),
                  reference.reference_grasap(p, q, k, pairing))
            cases += 1
    return cases


@pytest.mark.parametrize("p", range(1, 13))
def test_every_small_grid(p):
    cases = sum(_check_grid(p, q, range(q + 1)) for q in range(1, p + 1))
    # per q: Asap and Grasap(0..q), in both pairings
    assert cases == sum(2 * (q + 2) for q in range(1, p + 1))


@pytest.mark.parametrize("p, q", [(40, 8), (32, 8)])
def test_sweep_grids(p, q):
    _check_grid(p, q, range(q + 1))


def test_large_square_grid():
    _check_grid(40, 40, (1, 20, 40))
