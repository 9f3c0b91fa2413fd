"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest


def shm_entries():
    """The names under ``/dev/shm`` (``None`` where it does not exist),
    to check that a run left no shared-memory segment behind."""
    if not os.path.isdir("/dev/shm"):
        return None
    return set(os.listdir("/dev/shm"))


def random_matrix(rng, m, n, dtype=np.float64):
    """Well-conditioned random matrix of the requested dtype."""
    a = rng.standard_normal((m, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((m, n))
    return np.ascontiguousarray(a.astype(dtype))


def random_elimination_list(rng, p, q, name="random", allow_reverse=False):
    """A uniformly random *valid* elimination list (per-column reductions).

    Each column picks random eliminations until a single survivor (the
    diagonal row) remains; columns are concatenated in order, which
    satisfies both Section-2.2 validity conditions.  With
    ``allow_reverse=True`` pivots may sit *below* their target (the
    reverse eliminations Lemma 1 removes).
    """
    from repro.schemes.elimination import Elimination, EliminationList

    elims = []
    for k in range(min(p, q)):
        alive = list(range(k, p))
        while len(alive) > 1:
            ti = int(rng.integers(1, len(alive)))
            if allow_reverse:
                choices = [x for x in range(len(alive)) if x != ti]
                pi = int(choices[rng.integers(0, len(choices))])
            else:
                pi = int(rng.integers(0, ti))
            elims.append(Elimination(alive[ti], alive[pi], k))
            del alive[ti]
    return EliminationList(p, q, elims, name=name)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=[np.float64, np.complex128], ids=["real", "complex"])
def dtype(request):
    return request.param
