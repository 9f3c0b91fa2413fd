"""Vectorized simulator vs. the reference implementations (S18).

The CSR-indexed simulator must be *byte-identical* to the per-task
Python reference it replaced — same starts, finishes, and worker
assignments — on the grids behind the paper's Tables 3-5.  ``max`` is
exact in floating point, so any divergence is a real bug, not noise.
"""

import numpy as np
import pytest

from repro.dag.build import build_dag
from repro.kernels.costs import Kernel, KernelFamily
from repro.schemes.registry import get_scheme
from repro.sim.simulate import (bottom_levels, simulate_bounded,
                                 simulate_unbounded)
from tests.sim.reference import (
    reference_bottom_levels,
    reference_bounded,
    reference_unbounded,
)

# Table 3 (15 x 6 TT), Table 4a (15 x 3), Table 4b samples, Table 5
# (TS families / PlasmaTree BS column)
GRIDS = [
    ("flat-tree", 15, 6, "TT", {}),
    ("fibonacci", 15, 6, "TT", {}),
    ("greedy", 15, 6, "TT", {}),
    ("asap", 15, 3, "TT", {}),
    ("grasap", 15, 3, "TT", {"k": 1}),
    ("greedy", 16, 8, "TT", {}),
    ("greedy", 32, 4, "TT", {}),
    ("binary-tree", 15, 6, "TS", {}),
    ("plasma-tree", 15, 6, "TS", {"bs": 5}),
    ("plasma-tree", 20, 10, "TT", {"bs": 4}),
    ("greedy", 1, 1, "TT", {}),
]

IDS = [f"{s}-{p}x{q}-{f}" for s, p, q, f, _ in GRIDS]


def _graph(scheme, p, q, family, params):
    return build_dag(get_scheme(scheme, p, q, **params),
                     KernelFamily(family))


@pytest.mark.parametrize("scheme,p,q,family,params", GRIDS, ids=IDS)
class TestByteIdentical:
    def test_unbounded(self, scheme, p, q, family, params):
        g = _graph(scheme, p, q, family, params)
        ref = reference_unbounded(g)
        got = simulate_unbounded(g)
        assert np.array_equal(got.start, ref.start)
        assert np.array_equal(got.finish, ref.finish)
        assert got.makespan == ref.makespan

    def test_bottom_levels(self, scheme, p, q, family, params):
        g = _graph(scheme, p, q, family, params)
        assert np.array_equal(bottom_levels(g), reference_bottom_levels(g))

    @pytest.mark.parametrize("processors", [1, 3, 8])
    def test_bounded(self, scheme, p, q, family, params, processors):
        g = _graph(scheme, p, q, family, params)
        for priority in ("critical-path", "fifo"):
            ref = reference_bounded(g, processors, priority=priority)
            got = simulate_bounded(g, processors, priority=priority)
            assert np.array_equal(got.start, ref.start)
            assert np.array_equal(got.finish, ref.finish)
            assert np.array_equal(got.worker, ref.worker)


class TestRescaledWeights:
    def test_unbounded_with_costs(self):
        g = _graph("greedy", 12, 5, "TT", {})
        g = g.rescale({k: float(i + 1) * 0.37 for i, k in enumerate(Kernel)})
        ref = reference_unbounded(g)
        got = simulate_unbounded(g)
        assert np.array_equal(got.start, ref.start)
        assert np.array_equal(got.finish, ref.finish)

    def test_bounded_with_costs(self):
        g = _graph("fibonacci", 12, 5, "TT", {})
        g = g.rescale({k: float(i + 1) * 0.37 for i, k in enumerate(Kernel)})
        ref = reference_bounded(g, 4)
        got = simulate_bounded(g, 4)
        assert np.array_equal(got.start, ref.start)
        assert np.array_equal(got.worker, ref.worker)
