"""Frontier micro-batching: group formation + dispatch equivalence.

The acceptance bar from ISSUE 10: grouped dispatch never changes
results on the numpy path — ``batch="auto"`` is bit-exact against
``batch="off"`` through the process backend (fork and spawn) and the
threaded executor, ``batch=1`` degenerates to classic single-task
dispatch exactly, and the :class:`~repro.runtime.groups.GroupFrontier`
only ever forms same-kernel groups of mutually-ready tasks on any
tile DAG (QR, LU, Cholesky — the latter two execute nothing numeric
in this repo, so their coverage is the group-formation properties the
process backend relies on).
"""

import numpy as np
import pytest

from repro.api import factor, plan
from repro.obs.metrics import MetricsRegistry
from repro.problems import build_cholesky_dag, build_lu_dag
from repro.runtime import ProcessPool
from repro.runtime.groups import (
    FACTOR_CODES,
    GroupFrontier,
    dispatch_arrays,
    resolve_batch,
)
from repro.runtime.options import ExecOptions
from tests.conftest import random_matrix, shm_entries

NB = 8


@pytest.fixture(scope="module")
def pool():
    with ProcessPool(workers=2, start_method="fork") as p:
        yield p


def qr_graph(p=4, q=4):
    return plan(p, q, "greedy").graph


# ----------------------------------------------------------------------
# GroupFrontier properties
# ----------------------------------------------------------------------

def drain_in_groups(graph, batch, limit=None):
    """Run the group scheduler dry on ``graph``; yield each group.

    Mirrors the process backend's loop: push tasks as their deps
    retire, pop compatible groups, retire the whole group at once.
    Asserts en route that a popped task never precedes one of its
    dependencies.
    """
    da = dispatch_arrays(graph)
    fr = GroupFrontier(da.codes, batch=batch, src=da.src)
    ndeps = np.array([len(t.deps) for t in graph.tasks])
    missing = ndeps.copy()
    done = np.zeros(len(graph.tasks), dtype=bool)
    for t in graph.tasks:
        if not t.deps:
            fr.push(t.tid)
    while len(fr):
        code, tids = fr.pop_group(limit=limit)
        assert tids, "pop_group returned an empty group"
        for tid in tids:
            assert int(da.codes[tid]) == code, "mixed-kernel group"
            assert missing[tid] == 0, "popped before its deps retired"
            assert not done[tid], "task popped twice"
        for tid in tids:
            done[tid] = True
            for t2 in graph.tasks:
                if tid in t2.deps:
                    missing[t2.tid] -= 1
                    if missing[t2.tid] == 0:
                        fr.push(t2.tid)
        yield code, tids
    assert done.all(), "groups did not partition the DAG"


@pytest.mark.parametrize("build", [
    qr_graph,
    lambda: build_lu_dag(5, 5),
    lambda: build_cholesky_dag(5),
], ids=["qr", "lu", "cholesky"])
@pytest.mark.parametrize("batch", [1, 3, 64])
def test_groups_partition_and_respect_deps(build, batch):
    g = build()
    total = sum(len(tids) for _, tids in drain_in_groups(g, batch))
    assert total == len(g.tasks)


def test_groups_never_exceed_batch_or_limit():
    g = qr_graph(6, 6)
    for _, tids in drain_in_groups(g, batch=4):
        assert len(tids) <= 4
    for _, tids in drain_in_groups(g, batch=64, limit=5):
        assert len(tids) <= 5


def test_batch_one_pops_globally_best_task():
    """``batch=1`` must reduce to a plain priority heap: ascending
    keys pop in exactly key order regardless of kernel bucketing."""
    codes = np.array([0, 1, 0, 1, 2, 0], dtype=np.int8)
    fr = GroupFrontier(codes, batch=1)
    keys = [5.0, 1.0, 3.0, 0.0, 4.0, 2.0]
    for tid, k in enumerate(keys):
        fr.push(tid, key=k)
    order = [fr.pop_group()[1][0] for _ in range(len(keys))]
    assert order == sorted(range(len(keys)), key=lambda t: keys[t])


def test_source_affinity_drains_best_bucket_first():
    """The best task's whole V/T bucket rides along before any other
    source slot is touched — the property that makes one group one
    broadcast T fetch."""
    codes = np.zeros(6, dtype=np.int8)
    src = np.array([7, 7, 7, 9, 9, 9])
    fr = GroupFrontier(codes, batch=4, src=src)
    # best key lands in bucket 7; its siblings have *worse* keys than
    # bucket 9's, yet must still be grouped with it
    for tid, key in [(0, 0.0), (1, 5.0), (2, 6.0),
                     (3, 1.0), (4, 2.0), (5, 3.0)]:
        fr.push(tid, key=key)
    _, tids = fr.pop_group()
    assert set(tids[:3]) == {0, 1, 2}
    assert len(tids) == 4 and tids[3] == 3


def test_empty_frontier_raises():
    fr = GroupFrontier(np.zeros(1, dtype=np.int8), batch=2)
    with pytest.raises(IndexError):
        fr.pop_group()
    with pytest.raises(ValueError):
        GroupFrontier(np.zeros(1, dtype=np.int8), batch=0)


# ----------------------------------------------------------------------
# resolve_batch
# ----------------------------------------------------------------------

class TestResolveBatch:
    def test_off_is_one(self):
        assert resolve_batch("off", 64) == 1

    def test_int_passthrough(self):
        assert resolve_batch(17, 64) == 17

    def test_bad_values_raise(self):
        with pytest.raises(ValueError):
            resolve_batch(0, 64)
        with pytest.raises(ValueError):
            resolve_batch(-3, 64)

    def test_auto_scales_down_with_tile_size(self):
        small = resolve_batch("auto", 32, workers=4)
        large = resolve_batch("auto", 512, workers=4)
        assert small > large
        assert large == 1  # big tiles dwarf the queue tax

    def test_auto_deepens_for_a_single_worker(self):
        solo = resolve_batch("auto", 64, workers=1)
        crowd = resolve_batch("auto", 64, workers=8)
        assert solo > crowd

    def test_exec_options_validation(self):
        assert ExecOptions(batch="auto").batch == "auto"
        assert ExecOptions(batch="off").batch == "off"
        assert ExecOptions(batch=4).batch == 4
        with pytest.raises(ValueError):
            ExecOptions(batch=0)
        with pytest.raises(ValueError):
            ExecOptions(batch="bogus")


# ----------------------------------------------------------------------
# end-to-end equivalence (numpy path is bit-exact)
# ----------------------------------------------------------------------

SHAPES = [(64, 64), (70, 33), (96, 32)]


class TestBitExactEquivalence:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_process_auto_matches_off(self, rng, pool, shape):
        a = random_matrix(rng, *shape, np.float64)
        kw = dict(nb=NB, ib=4, mode="process", pool=pool,
                  backend="reference")
        f0 = factor(a, batch="off", **kw)
        f1 = factor(a, batch="auto", **kw)
        assert np.array_equal(f0.r(), f1.r())
        assert np.array_equal(f0.q(), f1.q())

    def test_batch_one_is_the_degenerate_unbatched_path(self, rng, pool):
        a = random_matrix(rng, 70, 33, np.float64)
        kw = dict(nb=NB, ib=4, mode="process", pool=pool,
                  backend="reference")
        f0 = factor(a, batch="off", **kw)
        f1 = factor(a, batch=1, **kw)
        assert np.array_equal(f0.r(), f1.r())
        assert np.array_equal(f0.q(), f1.q())

    def test_spawn_matches_fork(self, rng):
        a = random_matrix(rng, 64, 64, np.float64)
        kw = dict(nb=NB, ib=4, mode="process", workers=2,
                  backend="reference", batch="auto")
        f_f = factor(a, start_method="fork", **kw)
        f_s = factor(a, start_method="spawn", **kw)
        assert np.array_equal(f_f.r(), f_s.r())

    @pytest.mark.parametrize("scheme,family", [("greedy", "TT"),
                                               ("flat-tree", "TS")])
    def test_threaded_executor_auto_matches_off(self, rng, scheme,
                                                family):
        a = random_matrix(rng, 70, 33, np.float64)
        kw = dict(nb=NB, ib=4, backend="reference", workers=2,
                  scheme=scheme, family=family)
        f0 = factor(a, batch="off", **kw)
        f1 = factor(a, batch="auto", **kw)
        assert np.array_equal(f0.r(), f1.r())
        assert np.array_equal(f0.q(), f1.q())


# ----------------------------------------------------------------------
# chunked applies
# ----------------------------------------------------------------------

def test_apply_groups_make_one_stacked_call_per_chunk(rng, monkeypatch):
    """An apply group that mixes V-run lengths makes one stacked-apply
    call per length (a chunk: the tile budget does not bind at this
    size), not one per run, and returns the bytes of ``batch="off"``.
    """
    from collections import Counter

    from repro.runtime import group_executor

    calls = []
    for name in ("unmqr_batched", "apply_stacked_batched"):
        def spy(*args, _kernel=getattr(group_executor, name), **kw):
            calls.append(1)
            _kernel(*args, **kw)
        monkeypatch.setattr(group_executor, name, spy)
    pl = plan(16, 4, "greedy", "TS")
    da = pl.dispatch_arrays()
    runs = chunks = mixed = 0
    for code, tids in pl.level_groups():
        if code in FACTOR_CODES:
            continue
        # a V-run is the tasks of one source (V/T) slot
        run_lengths = Counter(da.take(tids)[-1].tolist()).values()
        lengths = set(run_lengths)
        runs += len(run_lengths)
        chunks += len(lengths)
        mixed += len(lengths) > 1
    assert mixed and chunks < runs
    a = random_matrix(rng, 16 * NB, 4 * NB, np.float64)
    kw = dict(nb=NB, ib=4, scheme="greedy", family="TS",
              backend="reference")
    f1 = factor(a, mode="batched", **kw)
    assert len(calls) == chunks
    f0 = factor(a, mode="task", workers=2, batch="off", **kw)
    assert np.array_equal(f0.r(), f1.r())
    assert np.array_equal(f0.q(), f1.q())


# ----------------------------------------------------------------------
# dispatch mechanics
# ----------------------------------------------------------------------

class TestDispatchMechanics:
    def test_batch_metrics_recorded(self, rng, pool):
        a = random_matrix(rng, 96, 96, np.float64)
        reg = MetricsRegistry()
        factor(a, nb=NB, ib=4, mode="process", pool=pool,
               batch=8, metrics=reg)
        assert "procpool.batch.groups" in reg
        assert "procpool.batch.descriptors" in reg
        assert "procpool.batch.group_size" in reg
        groups = reg.counter("procpool.batch.groups").value
        descriptors = reg.counter("procpool.batch.descriptors").value
        assert 0 < descriptors <= groups
        assert reg.histogram("procpool.batch.group_size").max <= 8

    def test_batch_off_records_no_group_metrics(self, rng, pool):
        a = random_matrix(rng, 48, 48, np.float64)
        reg = MetricsRegistry()
        factor(a, nb=NB, ib=4, mode="process", pool=pool,
               batch="off", metrics=reg)
        assert "procpool.batch.groups" not in reg

    def test_giant_batch_cannot_starve_a_worker(self, rng):
        """Regression: the in-flight cap counts *constituent tasks*,
        not descriptors.  With a group size far above the DAG width a
        descriptor-counting cap would hand one worker the whole
        frontier; the task-counting cap keeps both workers fed."""
        from repro.obs import DistributedTracer

        a = random_matrix(rng, 128, 128, np.float64)
        tr = DistributedTracer()
        with ProcessPool(workers=2, start_method="fork") as p:
            factor(a, nb=NB, ib=4, mode="process", pool=p,
                   batch=4, tracer=tr)
        by_worker = {}
        for span in tr.spans:
            by_worker[span.worker] = by_worker.get(span.worker, 0) + 1
        assert set(by_worker) == {0, 1}, by_worker
        # neither worker ran essentially everything
        assert min(by_worker.values()) >= 0.1 * max(by_worker.values())

    def test_error_inside_a_multi_group_descriptor_propagates(
            self, rng, monkeypatch):
        """A kernel failure mid-descriptor must surface with the worker
        traceback and release every in-flight member, leaving the pool
        usable and no shared-memory segment behind."""
        import multiprocessing

        from repro.runtime import group_executor

        # the stacked apply every apply group runs, patched before the
        # fork workers start; the flag is shared memory, so disarming
        # it reaches the workers for the reuse run
        armed = multiprocessing.get_context("fork").Value("b", 1,
                                                          lock=False)
        apply_group_pool = group_executor.apply_group_pool

        def boom(*args):
            if armed.value:
                raise FloatingPointError("injected apply failure")
            apply_group_pool(*args)

        monkeypatch.setattr(group_executor, "apply_group_pool", boom)
        a = random_matrix(rng, 96, 96, np.float64)
        before = shm_entries()
        with ProcessPool(workers=2, start_method="fork") as p:
            with pytest.raises(RuntimeError,
                               match="injected apply failure"):
                factor(a, nb=NB, ib=4, mode="process", pool=p,
                       backend="reference", batch=8)
            if before is not None:
                assert shm_entries() - before == set()
            monkeypatch.undo()
            armed.value = 0
            f = factor(a, nb=NB, ib=4, mode="process", pool=p,
                       backend="lapack", batch=8)
            assert f.residual(a) < 1e-12
