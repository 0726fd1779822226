"""The benchmark's own checks pass on its model families.

`perfbench/run.py` checks every output it captures only after its timed
loop, so a wrong bracket or expected time would first show as a failed
benchmark run.  These tests generate the same models, run the same
`mama run` queries and apply the same checks.  The expected-time check
computes its infinite entries with almost-sure fixpoints of its own, so it
pins `graph.almost_sure_reach` at benchmark scale against code that shares
nothing with the package.  Files under `perfbench/` are only read.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

import mama.cli

from conftest import MODELS

PERFBENCH = MODELS.parent / "perfbench"

SEEDS = [1, 2]
WORKLOADS = ["random-ma", "bd-chain", "many-mecs"]


def _benchmark_query(monkeypatch, tmp_path, workload, seed, query):
    """The family, the benchmark modules and the JSON payload of one query."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import check
    import gen
    import run

    fam = gen.FAMILIES[workload](seed)
    model = tmp_path / "model.ma"
    model.write_text(fam.to_text(), encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mama.cli.run(run.query_argv(model, query, run.HORIZON[workload]))
    assert code == 0
    payload = json.loads(buf.getvalue())
    assert payload["mode"] == "both"
    return fam, check, run, payload


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_tbr_output_passes_its_check(monkeypatch, tmp_path, workload, seed):
    fam, check, run, payload = _benchmark_query(monkeypatch, tmp_path, workload, seed, "tbr")
    b = run.HORIZON[workload]
    assert check.check_tbr(fam, payload, b, run.EPSILON) == []


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_et_output_passes_its_check(monkeypatch, tmp_path, workload, seed):
    fam, check, _, payload = _benchmark_query(monkeypatch, tmp_path, workload, seed, "et")
    assert check.check_et(fam, payload) == []
