"""Static hazard check: every conflicting access pair is DAG-ordered.

Each builder hands an access table (every resource each task reads or
writes) to :func:`repro.dag.build.resolve_hazards`.  Whatever edges the
resolver infers, the graph is only a valid schedule constraint if, for
every resource, each read-after-write, write-after-read and
write-after-write pair of distinct tasks is ordered by a DAG path from
the earlier task to the later one.  This is the one check on the LU
and Cholesky edges beyond their golden critical paths.
"""

import pytest

import repro.dag.build as build
from repro.problems import get_problem
from repro.schemes import available_schemes
from tests.dag.test_oracle import scheme


def built_with_access(monkeypatch, make):
    """``make()``'s graph and the access table its builder resolved."""
    seen = []

    def spy(acc):
        seen.append(acc)
        return resolve(acc)

    resolve = build.resolve_hazards
    monkeypatch.setattr(build, "resolve_hazards", spy)
    graph = make()
    monkeypatch.undo()
    (acc,) = seen
    return graph, acc


def assert_hazards_ordered(graph, acc):
    ptr, adj = graph.dep_ptr.tolist(), graph.dep_adj.tolist()
    # reach[t]: bitset of every task with a path to t
    reach = []
    for t in range(len(graph)):
        bits = 0
        for d in adj[ptr[t]:ptr[t + 1]]:
            bits |= reach[d] | (1 << d)
        reach.append(bits)
    by_res: dict[int, list] = {}
    for tid, res, write in zip(acc.tid.tolist(), acc.res.tolist(),
                               acc.write.tolist()):
        by_res.setdefault(res, []).append((tid, write))
    pairs = 0
    for res, accesses in by_res.items():
        for i, (a, wa) in enumerate(accesses):
            for b, wb in accesses[i + 1:]:
                if a != b and (wa or wb):
                    pairs += 1
                    assert reach[b] >> a & 1, (
                        f"{graph.name}: {graph.label(a)} and "
                        f"{graph.label(b)} conflict on resource {res} "
                        "but no path orders them")
    assert pairs or len(graph) <= 1


QR_GRIDS = [(p, q) for q in range(1, 7) for p in range(q, 9)]


@pytest.mark.parametrize("family", ["TT", "TS"])
@pytest.mark.parametrize("name", available_schemes())
def test_qr(monkeypatch, name, family):
    for p, q in QR_GRIDS:
        elims = scheme(name, p, q)
        assert_hazards_ordered(*built_with_access(
            monkeypatch, lambda: build.build_dag(elims, family)))


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 9)
                                 for q in range(1, p + 1)])
def test_lu(monkeypatch, p, q):
    problem = get_problem("lu", p=p, q=q)
    assert_hazards_ordered(*built_with_access(
        monkeypatch, lambda: problem.build()[1]))


@pytest.mark.parametrize("t", range(1, 9))
def test_cholesky(monkeypatch, t):
    problem = get_problem("cholesky", t=t)
    assert_hazards_ordered(*built_with_access(
        monkeypatch, lambda: problem.build()[1]))
