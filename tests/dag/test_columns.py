"""The columnar TaskGraph: Task objects only on demand.

Planning, simulating, analyzing, factoring and solving read the
graph's columns.  :class:`Task` objects are built only for something
that asks for them — here, an ``on_task_done`` observer, which must
receive exactly the tasks the program-order oracle describes.  A
tracer, a metrics registry and an event bus build none.
"""

import numpy as np
import pytest

import repro.api as api
from repro.dag import Task, TaskGraph, build_dag
from repro.dag.tasks import KERNEL_CODES
from repro.ext import (DistributedLayout, Failure, simulate_distributed,
                       simulate_heterogeneous, simulate_with_failures)
from repro.kernels.costs import Kernel
from repro.obs import DistributedTracer, EventBus, MetricsRegistry, Tracer
from repro.obs.analyze import analyze_sim
from repro.runtime import ProcessPool
from repro.schemes import get_scheme
from tests.dag.reference import reference_qr

#: the unobserved factor paths, as ``api.factor`` keywords
FACTOR_PATHS = {
    "batched": {"mode": "batched"},
    "task": {"mode": "task"},
    "threads": {"mode": "task", "workers": 2},
    "process": {"mode": "process"},
}


@pytest.fixture
def made(monkeypatch):
    """Records every Task constructed while the test runs."""
    out = []
    init = Task.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        out.append(self)

    monkeypatch.setattr(Task, "__init__", counting)
    return out


@pytest.fixture(scope="module")
def pool():
    with ProcessPool(workers=1) as p:
        yield p


def oracle_tasks(elims, family):
    """The oracle's graph as Task objects."""
    a = reference_qr(elims, family)
    ptr = a["dep_ptr"].tolist()
    return [Task(tid=t, kernel=KERNEL_CODES[c], row=r,
                 piv=None if pv < 0 else pv, col=k, j=None if j < 0 else j,
                 weight=w, deps=a["dep_adj"][ptr[t]:ptr[t + 1]].tolist())
            for t, (c, r, pv, k, j, w) in enumerate(zip(
                a["kernel"].tolist(), a["row"].tolist(), a["piv"].tolist(),
                a["col"].tolist(), a["j"].tolist(), a["weight"].tolist()))]


class TestNoTaskObjects:
    @pytest.mark.parametrize("spec", ["qr", "lu(p=6,q=4)", "cholesky(t=5)"])
    def test_plan_simulate_analyze(self, made, spec):
        pl = (api.plan(9, 4, "greedy", "TS", cache=False) if spec == "qr"
              else api.plan(spec, cache=False))
        for res in (api.simulate(pl), api.simulate(pl, processors=48)):
            rep = analyze_sim(res)
            assert rep.tasks == len(pl)
            assert rep.critical_path.steps
        assert made == []

    @pytest.mark.parametrize("sim", [
        lambda g: simulate_heterogeneous(g, [1.0, 0.5, 2.0]),
        lambda g: simulate_with_failures(g, 3, [Failure(1, 9.0)]),
        lambda g: simulate_distributed(g, DistributedLayout(9, 3), 2, 1.5),
    ], ids=["heterogeneous", "failures", "distributed"])
    def test_ext_simulators(self, made, sim):
        res = sim(api.plan(9, 4, "greedy", "TS", cache=False).graph)
        assert (res.worker >= 0).all()
        assert made == []

    @pytest.mark.parametrize("path", FACTOR_PATHS)
    def test_factor_and_solve(self, made, pool, path):
        api.clear_plan_cache()
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((80, 48)), rng.standard_normal(80)
        kw = dict(FACTOR_PATHS[path], pool=pool) if path == "process" \
            else FACTOR_PATHS[path]
        fact = api.factor(a, nb=16, ib=4, scheme="greedy", **kw)
        x = fact.solve_lstsq(b)
        np.testing.assert_allclose(x, np.linalg.lstsq(a, b, rcond=None)[0],
                                   rtol=1e-8)
        assert made == []

    @pytest.mark.parametrize("path", FACTOR_PATHS)
    def test_observed_factor(self, made, pool, path):
        """A tracer, a registry and a bus label and count from the
        graph columns: only ``on_task_done`` asks for Task objects."""
        api.clear_plan_cache()
        a = np.random.default_rng(5).standard_normal((80, 48))
        kw = dict(FACTOR_PATHS[path], pool=pool) if path == "process" \
            else FACTOR_PATHS[path]
        tracer = DistributedTracer() if path == "process" else Tracer()
        api.factor(a, nb=16, ib=4, scheme="greedy", tracer=tracer,
                   metrics=MetricsRegistry(), bus=EventBus(), **kw)
        spans = tracer.spans  # the distributed merge runs on this read
        assert sum(s.count for s in spans) == len(api.plan(5, 3, "greedy"))
        assert made == []

    @pytest.mark.parametrize("path", FACTOR_PATHS)
    def test_observer_receives_oracle_tasks(self, pool, path):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((80, 48))
        seen = []
        kw = dict(FACTOR_PATHS[path], pool=pool) if path == "process" \
            else FACTOR_PATHS[path]
        api.factor(a, nb=16, ib=4, scheme="greedy", family="TS",
                   on_task_done=lambda t, done, total: seen.append(t), **kw)
        want = oracle_tasks(get_scheme("greedy", 5, 3), "TS")
        assert sorted(seen, key=lambda t: t.tid) == want


class TestColumns:
    @pytest.fixture
    def graph(self):
        return build_dag(get_scheme("greedy", 9, 4), "TT")

    def test_tasks_built_once(self, graph, made):
        assert graph.tasks is graph.tasks
        assert len(made) == len(graph)

    def test_label_matches_str(self, graph):
        assert [graph.label(t) for t in range(len(graph))] == \
            [str(t) for t in graph.tasks]

    def test_columns_read_only(self, graph):
        with pytest.raises(ValueError):
            graph.weights[0] = 1.0

    def test_zero_task(self, graph):
        assert graph.zero_task == {(t.row, t.col): t.tid
                                   for t in graph.tasks if t.kernel in
                                   (Kernel.TSQRT, Kernel.TTQRT)}

    def test_total_weight_left_to_right(self):
        g = build_dag(get_scheme("greedy", 9, 4), "TS").rescale(
            {k: 0.1 * (i + 1) for i, k in enumerate(Kernel)})
        want = 0
        for t in g.tasks:
            want += t.weight
        assert g.total_weight() == want

    def test_arrays_round_trip(self, graph):
        back = TaskGraph.from_arrays(graph.p, graph.q, graph.name,
                                     graph.to_arrays(), problem="qr")
        assert back.tasks == graph.tasks

    def test_with_weights_shares_structure(self, graph):
        w = np.arange(len(graph), dtype=float)
        g2 = graph.with_weights(w, name="ramp")
        assert g2.name == "ramp" and g2.problem == graph.problem
        assert np.shares_memory(g2.dep_adj, graph.dep_adj)
        np.testing.assert_array_equal(g2.index().weights, w)
        assert g2.index().order is graph.index().order
