"""Every spelling of a shape reaches one Plan through one path.

``plan()`` resolves a QR grid, a scheme spec with its grid as
keywords, a problem spec or a :class:`~repro.problems.Problem` to one
problem, keys it and looks it up once.  The keys are pinned: a disk
cache written before the QR and problem paths were merged must still
hit.
"""

import pytest

from repro.api import simulate
from repro.kernels.costs import Kernel, KernelFamily
from repro.planner import (clear_plan_cache, plan, plan_cache_stats,
                           plan_problem)
from repro.problems import QRProblem
from repro.schemes.registry import get_scheme


@pytest.fixture(autouse=True)
def _fresh_cache(monkeypatch):
    monkeypatch.delenv("REPRO_PLAN_CACHE", raising=False)
    clear_plan_cache()
    yield
    clear_plan_cache()


#: (call, key, Plan.scheme) for plans whose keys predate the merge
PINNED = [
    (lambda: plan(8, 4, "greedy"),
     "b5a9cc0d82951c0b2d1d5cb05f8dcd45", "greedy"),
    (lambda: plan(15, 6, "plasma", bs=3),
     "a9c24ce82cbad7b0ed43edee82090b83", "plasma-tree(bs=3)"),
    (lambda: plan("cholesky(t=8)"),
     "6cbfc417f2a22ce083941e68a06f5120", "cholesky(t=8)"),
    (lambda: plan("lu(p=8,q=8)"),
     "4bde53f1d7cdb215b789e62d950752d6", "lu(p=8,pivot='incremental',q=8)"),
]


class TestKeys:
    @pytest.mark.parametrize("call, key, scheme", PINNED)
    def test_pinned(self, call, key, scheme):
        pl = call()
        assert pl.key == key
        assert pl.scheme == scheme

    @pytest.mark.parametrize("call, key, scheme", PINNED)
    def test_disk_entry_under_the_pinned_key_hits(
            self, tmp_path, monkeypatch, call, key, scheme):
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
        call()
        assert (tmp_path / f"{key}.npz").is_file()
        clear_plan_cache()  # memory tier only
        hits = plan_cache_stats().get("disk.hits", 0.0)
        assert call().key == key
        assert plan_cache_stats().get("disk.hits", 0.0) == hits + 1


class TestOneObject:
    def test_qr_spellings(self):
        pl = plan("qr(p=8,q=4)")
        assert plan(8, 4, "greedy") is pl
        assert plan(QRProblem(8, 4)) is pl
        assert plan_problem("qr", p=8, q=4) is pl
        assert plan("greedy", p=8, q=4) is pl
        assert plan(p=8, q=4, scheme="greedy", family="TT") is pl

    def test_plan_problem_is_plan(self):
        assert plan_problem is plan

    def test_none_grid_keywords_count_as_not_given(self):
        pl = plan("cholesky(t=8)", p=None, q=None, family=None)
        assert pl is plan("cholesky(t=8)")
        assert plan("greedy", p=8, q=4, family=None) is plan(8, 4)


class TestEliminationLists:
    def test_never_cached(self):
        elims = get_scheme("fibonacci", 10, 4)
        a, b = plan(10, 4, elims), plan(elims)
        assert a is not b
        assert a.key is None and b.elims is elims

    def test_family_and_costs_apply(self):
        elims = get_scheme("greedy", 8, 4)
        pl = plan(elims, family="TS", costs={Kernel.GEQRT: 40.0})
        assert pl.family is KernelFamily.TS
        assert pl.critical_path() > plan(8, 4, "greedy", "TS").critical_path()


class TestPlanPassthrough:
    def test_grid_defaults_to_the_plans(self):
        pl = plan(8, 4, "greedy", "TS")
        assert plan(pl) is pl
        assert plan(8, 4, pl) is pl
        assert simulate(pl) is pl.unbounded()
        chol = plan("cholesky(t=4)")
        assert plan(chol) is chol

    def test_rejects_costs_and_parameters(self):
        pl = plan(15, 6, "greedy")
        with pytest.raises(ValueError, match="carries its costs"):
            plan(pl, costs={Kernel.GEQRT: 1.0})
        with pytest.raises(ValueError, match="carries its costs"):
            plan(15, 6, pl, bs=3)


class TestErrors:
    def test_scheme_name_needs_a_grid(self):
        with pytest.raises(ValueError, match="p and q"):
            plan("greedy")
        with pytest.raises(ValueError, match="p and q"):
            plan(8)

    def test_spec_takes_no_positional_grid(self):
        with pytest.raises(TypeError, match="positional grid"):
            plan("greedy", 8, 4)

    def test_duplicate_grid_argument(self):
        with pytest.raises(TypeError, match="multiple values"):
            plan(8, 4, "greedy", scheme="fibonacci")

    def test_problem_spec_rejects_scheme_parameters(self):
        with pytest.raises(TypeError, match="cholesky"):
            plan("cholesky(t=8)", bs=3)
