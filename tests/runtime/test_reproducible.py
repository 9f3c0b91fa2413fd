"""Every backend returns one R in every transport.

Every transport runs a group the same way: the reference factor
kernels as one call on the group's stacks, LAPACK's one slice at a
time, and every apply group (groups of one included) through the
stacked applies.  Each of those computes every slice alone, so the
bytes of ``R`` depend on none of the transport, the group sizes, the
worker count or the start method:

* with ``backend="lapack"`` — process and batched mode's default on
  real matrices.  Sequential task mode runs LAPACK's own per-tile
  applies, so its ``R`` is only close to theirs; every path has the
  reference kernels' row signs;
* with ``backend="reference"`` — the default on complex matrices and
  in task mode.  On an exact tiling sequential task mode runs the same
  arithmetic on the tile views, so its ``R`` has the same bytes too;
  ragged tilings pad the border tiles in every transport but the
  sequential one.
"""

import numpy as np
import pytest

from repro.api import factor
from repro.runtime import ProcessPool
from tests.conftest import random_matrix

NB, IB = 8, 4
SHAPES = {"exact": (64, 48), "ragged": (70, 33)}
DTYPES = {"float64": np.float64, "float32": np.float32}
REF_DTYPES = dict(DTYPES, complex128=np.complex128)
#: relative distance of R from the reference kernels' R
TOL = {np.float64: 1e-12, np.float32: 1e-5}


@pytest.fixture(scope="module")
def pools():
    with ProcessPool(workers=2, start_method="fork") as two, \
            ProcessPool(workers=1, start_method="fork") as one, \
            ProcessPool(workers=2, start_method="spawn") as spawned:
        yield {"two": two, "one": one, "spawn": spawned}


def rel(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


@pytest.mark.parametrize("dtype", DTYPES.values(), ids=list(DTYPES))
@pytest.mark.parametrize("family", ["TT", "TS"])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=list(SHAPES))
def test_lapack_r_bytes_agree_across_runs(rng, pools, shape, family,
                                          dtype):
    a = random_matrix(rng, *shape, dtype)

    def r(**opts):
        return factor(a, nb=NB, ib=IB, scheme="greedy", family=family,
                      **opts).r()

    two = dict(mode="process", pool=pools["two"])
    lapack = dict(two, backend="lapack")
    first = r(**two)  # process mode's default path
    runs = {
        "process call 2": r(**two),
        "process call 3": r(**two),
        "batch=auto": r(**lapack, batch="auto"),
        "batch=off": r(**lapack, batch="off"),
        "batch=4": r(**lapack, batch=4),
        "workers=1": r(mode="process", pool=pools["one"], backend="lapack"),
        "spawn": r(mode="process", pool=pools["spawn"], backend="lapack"),
        "batched": r(mode="batched"),
        "batched lapack": r(mode="batched", backend="lapack"),
        "thread": r(mode="task", workers=2, backend="lapack"),
    }
    assert first.dtype == dtype
    for name, other in runs.items():
        assert other.tobytes() == first.tobytes(), name
    # ... and the reference kernels' row signs
    assert rel(first, r(backend="reference")) < TOL[dtype]


@pytest.mark.parametrize("dtype", DTYPES.values(), ids=list(DTYPES))
@pytest.mark.parametrize("family", ["TT", "TS"])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=list(SHAPES))
def test_task_mode_lapack_has_the_reference_row_signs(rng, shape, family,
                                                      dtype):
    """LAPACK leaves a column whose tail is already zero unreflected —
    the last column of every square GEQRT tile is one — where the
    reference kernels flip its row.  The LAPACK kernels flip it too,
    so R matches with no sign normalization."""
    a = random_matrix(rng, *shape, dtype)
    kw = dict(nb=NB, ib=IB, scheme="greedy", family=family)
    f_ref = factor(a, **kw)
    f_lap = factor(a, backend="lapack", **kw)
    assert rel(f_lap.r(), f_ref.r()) < TOL[dtype]
    c = random_matrix(rng, shape[0], 3, dtype)
    assert rel(f_lap.qh_matmul(c.copy()),
               f_ref.qh_matmul(c.copy())) < TOL[dtype]


@pytest.mark.parametrize("dtype", REF_DTYPES.values(), ids=list(REF_DTYPES))
@pytest.mark.parametrize("family", ["TT", "TS"])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=list(SHAPES))
def test_reference_r_bytes_agree_across_runs(rng, pools, shape, family,
                                             dtype):
    a = random_matrix(rng, *shape, dtype)

    def r(backend="reference", **opts):
        return factor(a, nb=NB, ib=IB, scheme="greedy", family=family,
                      backend=backend, **opts).r()

    first = r(mode="batched")
    runs = {
        "thread batch=auto": r(mode="task", workers=2),
        "thread batch=off": r(mode="task", workers=2, batch="off"),
        "thread batch=4": r(mode="task", workers=2, batch=4),
        "process": r(mode="process", pool=pools["two"]),
        "process call 2": r(mode="process", pool=pools["two"]),
        "process batch=off": r(mode="process", pool=pools["two"],
                               batch="off"),
        "process batch=4": r(mode="process", pool=pools["two"], batch=4),
        "workers=1": r(mode="process", pool=pools["one"]),
        "spawn": r(mode="process", pool=pools["spawn"]),
    }
    if np.dtype(dtype).kind == "c":  # the reference kernels by default
        runs["batched default"] = r(None, mode="batched")
        runs["process default"] = r(None, mode="process",
                                    pool=pools["two"])
    if shape == SHAPES["exact"]:
        runs["sequential"] = r()
    assert first.dtype == dtype
    for name, other in runs.items():
        assert other.tobytes() == first.tobytes(), name
