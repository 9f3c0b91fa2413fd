"""Every worker model of the list-scheduling core against its oracle.

``simulate_bounded``, ``simulate_heterogeneous``,
``simulate_with_failures`` and ``simulate_distributed`` all run the one
loop of :mod:`repro.sim.simulate`; the oracles in
``tests/sim/reference.py`` are the separate heap loops it replaced.
Start, finish and worker must match byte for byte, at the size of the
benchmark's plan sweep (Greedy TT 40 x 40 is the largest DAG of the
paper's Tables 3-5) and on the corner cases of each model.
"""

import numpy as np
import pytest

from repro.api import plan
from repro.dag.build import build_dag
from repro.ext import (DistributedLayout, Failure, simulate_distributed,
                       simulate_heterogeneous, simulate_with_failures)
from repro.kernels.costs import Kernel
from repro.schemes.registry import get_scheme
from repro.sim.simulate import simulate_bounded
from tests.sim.reference import (reference_bounded, reference_distributed,
                                 reference_heterogeneous,
                                 reference_with_failures)

SHAPES = {"greedy-40x40-TT": ("greedy", 40, 40, "TT"),
          "fibonacci-40x8-TS": ("fibonacci", 40, 8, "TS"),
          "flat-tree-40x8-TS": ("flat-tree", 40, 8, "TS")}
PROCESSORS = [1, 4, 48]


@pytest.fixture(scope="module")
def graphs():
    return {name: build_dag(get_scheme(scheme, p, q), family)
            for name, (scheme, p, q, family) in SHAPES.items()}


def rescaled():
    """Greedy 12 x 5 TT with non-integral weights."""
    return build_dag(get_scheme("greedy", 12, 5), "TT").rescale(
        {k: 0.37 * (i + 1) + 0.011 for i, k in enumerate(Kernel)})


def speeds(P):
    return [(1.0, 0.5, 2.0, 0.75, 1.0)[w % 5] for w in range(P)]


def failures(graph, P):
    """Deaths at t=0, mid-run, and at one of worker 1's completions."""
    if P == 1:
        return []
    base = simulate_bounded(graph, P)
    on_1 = np.flatnonzero(base.worker == 1)
    done_1 = float(base.finish[on_1[len(on_1) // 2]])
    out = [Failure(0, 0.0), Failure(1, done_1)]
    if P > 3:
        out.append(Failure(P - 1, base.makespan / 2))
    return out


def layout(graph, P, kind):
    """``P`` workers on ``nodes`` nodes of ``P // nodes`` each."""
    nodes = 1 if P == 1 else 2 if P == 4 else 4
    return DistributedLayout(graph.p, nodes, kind), P // nodes


def assert_same(got, want):
    assert got.start.tobytes() == want.start.tobytes()
    assert got.finish.tobytes() == want.finish.tobytes()
    assert got.worker.tobytes() == want.worker.tobytes()
    assert got.makespan == want.makespan
    assert got.processors == want.processors


@pytest.mark.parametrize("P", PROCESSORS)
@pytest.mark.parametrize("name", SHAPES)
class TestBenchmarkScale:
    def test_bounded(self, graphs, name, P):
        g = graphs[name]
        assert_same(simulate_bounded(g, P), reference_bounded(g, P))

    def test_heterogeneous(self, graphs, name, P):
        g = graphs[name]
        assert_same(simulate_heterogeneous(g, speeds(P)),
                    reference_heterogeneous(g, speeds(P)))

    def test_failures(self, graphs, name, P):
        g = graphs[name]
        fs = failures(g, P)
        assert_same(simulate_with_failures(g, P, fs),
                    reference_with_failures(g, P, fs))

    @pytest.mark.parametrize("kind", ["block", "cyclic"])
    def test_distributed(self, graphs, name, P, kind):
        g = graphs[name]
        lay, per_node = layout(g, P, kind)
        assert_same(simulate_distributed(g, lay, per_node, 2.5),
                    reference_distributed(g, lay, per_node, 2.5))


@pytest.mark.parametrize("P", [1, 3, 8])
class TestCorners:
    def test_rescaled_weights(self, P):
        g = rescaled()
        assert_same(simulate_bounded(g, P), reference_bounded(g, P))
        assert_same(simulate_heterogeneous(g, speeds(P), "fifo"),
                    reference_heterogeneous(g, speeds(P), "fifo"))
        assert_same(simulate_with_failures(g, P, failures(g, P)),
                    reference_with_failures(g, P, failures(g, P)))
        lay = DistributedLayout(g.p, 3, "cyclic")
        assert_same(simulate_distributed(g, lay, P, 0.29),
                    reference_distributed(g, lay, P, 0.29))

    def test_explicit_priority_vector(self, graphs, P):
        g = graphs["fibonacci-40x8-TS"]
        prio = np.random.default_rng(P).integers(0, 5, len(g)).astype(float)
        assert_same(simulate_bounded(g, P, prio),
                    reference_bounded(g, P, prio))

    def test_failure_at_every_instant_kind(self, P):
        """A death exactly when its worker's task completes loses the
        task; one at t=0 shrinks the machine; several at one instant
        all retire before that instant's completions."""
        g = build_dag(get_scheme("greedy", 10, 4), "TT")
        base = simulate_bounded(g, P + 1)
        for t in sorted(set(base.finish.tolist()))[:12]:
            fs = [Failure(wk, t) for wk in range(P)]
            assert_same(simulate_with_failures(g, P + 1, fs),
                        reference_with_failures(g, P + 1, fs))
        fs = [Failure(P, 0.0)]
        assert_same(simulate_with_failures(g, P + 1, fs),
                    reference_with_failures(g, P + 1, fs))


class TestPlanOrGraph:
    """Every simulator takes a Plan as well as its TaskGraph."""

    @pytest.fixture
    def pl(self):
        return plan(8, 4, "greedy", cache=False)

    @pytest.mark.parametrize("sim", [
        lambda g: simulate_bounded(g, 3),
        lambda g: simulate_heterogeneous(g, [1.0, 0.5, 2.0]),
        lambda g: simulate_with_failures(g, 3, [Failure(1, 7.0)]),
        lambda g: simulate_distributed(g, DistributedLayout(8, 2), 2, 1.5),
    ], ids=["bounded", "heterogeneous", "failures", "distributed"])
    def test_same_schedule(self, pl, sim):
        a, b = sim(pl), sim(pl.graph)
        assert a.graph is b.graph is pl.graph
        assert_same(a, b)
