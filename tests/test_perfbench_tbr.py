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

import mama
import mama.cli
from mama.timedreach import TAIL_SHARE, poisson_weights

from conftest import MODELS
from test_timedreach import check_bracket_rules

PERFBENCH = MODELS.parent / "perfbench"

SEEDS = [1, 2, 3]
WORKLOADS = ["random-ma", "bd-chain", "many-mecs"]

# The seeds whose [0, b] query is answered by uniformisation.  Its bounds
# meet within eps on random-ma and bd-chain.  On many-mecs the seed draws
# the rates and goals: the min bounds of seeds 1 and 3 stay 0.063 and 0.054
# apart, so those fall back to the discretisation, and those of seed 2
# meet.
UNIFORMISED = {"random-ma": {1, 2, 3}, "bd-chain": {1, 2, 3}, "many-mecs": {2}}


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
    lam = payload["stats"]["lambda_max"]
    k = check.timed_steps(lam, b, run.EPSILON)
    psi, _ = poisson_weights(lam * b, run.EPSILON * TAIL_SHARE)
    attempt = 2 * len(psi) - 1
    steps = payload["stats"]["iterations"] // 2
    assert steps == (attempt if seed in UNIFORMISED[workload] else k + attempt)


@pytest.mark.parametrize("eps", [0.05, 1e-2, 1e-3])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_tbr_brackets_keep_their_rules(monkeypatch, workload, eps):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import run

    fam = gen.FAMILIES[workload](1)
    ma, goal = mama.parse(fam.to_text())
    check_bracket_rules(mama.validate(ma), goal, run.HORIZON[workload], eps)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_et_output_passes_its_check(monkeypatch, tmp_path, workload, seed):
    fam, check, _, payload = _benchmark_query(monkeypatch, tmp_path, workload, seed, "et")
    assert check.check_et(fam, payload) == []
