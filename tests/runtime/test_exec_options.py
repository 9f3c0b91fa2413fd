"""Tests for the :class:`repro.runtime.ExecOptions` bundle.

Validation, the one kernel-choice resolver, and the bundle as the only
declaration of the execution knobs: ``factor``'s execution keywords
are its fields, the executors take nothing but the bundle, and the
execution-options table of docs/api.md lists every field.
"""

import inspect
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import ExecOptions, factor
from repro.api import plan
from repro.dag import build_dag
from repro.kernels.backend import LAPACK, REFERENCE
from repro.kernels.validate import checked_backend
from repro.runtime import (ProcessPool, execute_batched, execute_graph,
                           execute_process)
from repro.runtime.options import resolve_backend
from repro.schemes import greedy
from repro.tiles import TiledMatrix

API_MD = Path(__file__).resolve().parents[2] / "docs" / "api.md"


class TestValidation:
    def test_defaults(self):
        o = ExecOptions()
        assert (o.mode, o.workers, o.backend, o.start_method, o.pool,
                o.batch) == ("task", None, None, None, None, "auto")

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ExecOptions(mode="quantum")

    def test_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ExecOptions(backend="fortran")

    def test_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ExecOptions(workers=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecOptions().mode = "batched"


class TestResolveBackend:
    def test_per_mode_defaults(self):
        f64, c128 = np.dtype(np.float64), np.dtype(np.complex128)
        assert resolve_backend(None, "task", f64) is REFERENCE
        assert resolve_backend(None, "batched", f64) is LAPACK
        assert resolve_backend(None, "process", f64) is LAPACK
        assert resolve_backend(None, "batched", c128) is REFERENCE
        assert resolve_backend(None, "process", c128) is REFERENCE

    def test_names(self):
        for mode in ("task", "batched", "process"):
            assert resolve_backend("reference", mode, np.float64) \
                is REFERENCE
            assert resolve_backend("lapack", mode, np.float64) is LAPACK

    def test_kernel_backend_object_runs_in_task_mode_only(self):
        bk = checked_backend("reference")
        assert resolve_backend(bk, "task", np.float64) is bk
        assert resolve_backend(LAPACK, "batched", np.float64) is LAPACK
        with pytest.raises(ValueError, match="registered backend"):
            resolve_backend(bk, "batched", np.float64)

    def test_lapack_off_task_mode_needs_a_real_dtype(self):
        assert resolve_backend("lapack", "task", np.complex128) is LAPACK
        with pytest.raises(ValueError, match="real dtypes"):
            resolve_backend("lapack", "batched", np.complex128)


class TestSingleSourceOfTruth:
    KNOBS = [f.name for f in fields(ExecOptions)]

    def test_factor_is_tiled_qr(self):
        assert repro.api.factor is repro.tiled_qr
        assert factor is repro.tiled_qr

    def test_factor_keywords_are_the_fields(self):
        params = inspect.signature(factor).parameters
        knobs = [n for n, p in params.items()
                 if p.kind is p.KEYWORD_ONLY and n in self.KNOBS]
        assert knobs == self.KNOBS
        for f in fields(ExecOptions):
            assert params[f.name].default == f.default
        assert "options" not in params

    def test_executors_take_only_the_bundle(self):
        for fn in (execute_graph, execute_batched, execute_process,
                   ProcessPool.run):
            params = list(inspect.signature(fn).parameters)
            rest = params[params.index("tiled") + 1:]
            assert rest == ["options", "ib", "on_task_done", "tracer",
                            "metrics", "bus"], fn.__name__

    def test_execute_graph_rejects_a_knob_keyword(self):
        tiled = TiledMatrix(np.eye(16, 8), 8)
        g = build_dag(greedy(tiled.p, tiled.q), "TT")
        with pytest.raises(TypeError):
            execute_graph(g, tiled, workers=2)
        with pytest.raises(TypeError, match="ExecOptions"):
            execute_graph(g, tiled, "lapack")

    def test_docs_table_lists_every_field_with_its_default(self):
        text = API_MD.read_text()
        table = text[text.index("### Execution options"):]
        rows = {}
        for line in table.splitlines()[2:]:
            if not line.startswith("|"):
                if rows:
                    break
                continue
            cells = [c.strip() for c in line.strip("|").split("|")]
            m = re.fullmatch(r"`(\w+)`", cells[0])
            if m:
                rows[m.group(1)] = cells
        assert sorted(rows) == sorted(self.KNOBS)
        for f in fields(ExecOptions):
            assert f"`{f.default!r}`" in rows[f.name][2], f.name


class TestThreading:
    """The bundle drives the same execution paths as the keywords."""

    def _matrix(self):
        return np.random.default_rng(7).standard_normal((48, 24))

    def test_factor_options_equivalent(self):
        a = self._matrix()
        f_kw = factor(a, nb=8, ib=4, mode="batched")
        tiled = TiledMatrix(a.copy(), 8)
        execute_graph(plan(6, 3, "greedy"), tiled,
                      ExecOptions(mode="batched"), ib=4)
        assert np.array_equal(f_kw.r(), np.triu(tiled.array[:24]))
        assert f_kw.residual(a) < 1e-12

    def test_execute_graph_accepts_options(self):
        a = self._matrix()
        tiled = TiledMatrix(a.copy(), 8)
        g = build_dag(greedy(tiled.p, tiled.q), "TT")
        ctx = execute_graph(g, tiled, ExecOptions(mode="task", workers=2),
                            ib=4)
        r = np.triu(ctx.tiled.array[:24])
        _, r_np = np.linalg.qr(a)
        assert np.allclose(np.abs(r), np.abs(r_np), atol=1e-11)
