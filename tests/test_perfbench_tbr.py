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
import random

import numpy as np
import pytest

import mama
import mama.cli

from conftest import MODELS
from test_timedreach import (
    assert_overlaps_discretisation,
    check_against_policies,
    check_bracket_rules,
    has_choices,
    uniformisation_steps,
)

PERFBENCH = MODELS.parent / "perfbench"

SEEDS = [1, 2, 3]
WORKLOADS = ["random-ma", "bd-chain", "many-mecs"]

# The uniformisation attempt that answers each seed's [0, b] query: 1 at
# lambda_max, 2 at twice it.  On random-ma and bd-chain the bounds meet
# within eps at lambda_max.  On many-mecs the seed draws the rates and
# goals: the min bounds of seeds 1 and 3 stay 0.063 and 0.054 apart at
# lambda_max and meet at twice it, and those of seed 2 meet at lambda_max.
ANSWERING = {
    "random-ma": {1: 1, 2: 1, 3: 1},
    "bd-chain": {1: 1, 2: 1, 3: 1},
    "many-mecs": {1: 2, 2: 1, 3: 2},
}


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
    k, attempts = uniformisation_steps(lam, b, run.EPSILON)
    assert k == check.timed_steps(lam, b, run.EPSILON)
    steps = payload["stats"]["iterations"] // 2
    assert steps == sum(attempts[: ANSWERING[workload][seed]])


@pytest.mark.parametrize("eps", [0.05, 1e-2, 1e-3])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_tbr_brackets_keep_their_rules(monkeypatch, workload, eps):
    check_bracket_rules(*_family_model(monkeypatch, workload, 1), eps)


def _family_model(monkeypatch, workload, seed):
    """The validated family model, its goal and the benchmark's horizon."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import run

    ma, goal = mama.parse(gen.FAMILIES[workload](seed).to_text())
    return mama.validate(ma), goal, run.HORIZON[workload]


# Queries that a raised rate answers, with the attempt that answers: attempt
# i uniformises at lambda_max 2^(i - 1).
RAISED = [("many-mecs", 1, 0.05, 2), ("many-mecs", 3, 0.05, 2), ("many-mecs", 7, 0.05, 2),
          ("many-mecs", 1, 1e-2, 4), ("random-ma", 1, 1e-2, 3)]


@pytest.mark.parametrize("workload, seed, eps, attempt", RAISED)
def test_raised_rate_brackets_overlap_a_finer_discretisation(
    monkeypatch, workload, seed, eps, attempt
):
    # check_bracket_rules checks the overlap at eps; a discretisation at
    # eps / 10 must overlap the answer too.
    vma, goal, b = _family_model(monkeypatch, workload, seed)
    assert check_bracket_rules(vma, goal, b, eps) == attempt
    res = mama.timed_reachability(vma, mama.TimedQuery(goal=goal, b=b, eps=eps, mode="both"))
    lo = {m: np.array(res.brackets[m][0]) for m in ("min", "max")}
    hi = {m: np.array(res.brackets[m][1]) for m in ("min", "max")}
    assert_overlaps_discretisation(vma, goal, b, eps / 10, lo, hi)


@pytest.mark.parametrize(
    "workload, seed, eps", [("many-mecs", 1, 0.05), ("many-mecs", 3, 0.05), ("random-ma", 1, 1e-2)]
)
def test_raised_rate_brackets_hold_every_sampled_policy(monkeypatch, workload, seed, eps):
    vma, goal, b = _family_model(monkeypatch, workload, seed)
    assert has_choices(vma)
    check_against_policies(vma, goal, b, eps, random.Random(seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_et_output_passes_its_check(monkeypatch, tmp_path, workload, seed):
    fam, check, _, payload = _benchmark_query(monkeypatch, tmp_path, workload, seed, "et")
    assert check.check_et(fam, payload) == []
