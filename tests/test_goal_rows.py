"""Expected time and timed reachability do not read the goal states' rows.

Both analyses depend on the model only up to the first goal visit, so
they read the validated model with the goal rows masked instead of
building the goal-absorbing one.  Here every query is asked of the
validated model and of `make_absorbing` of it, and the answers must agree
within 1e-12 relative, with the same infinities, or both queries must
raise the same error.  The absorbed rows may differ from the validated
ones in their last bits, because `make_absorbing` renormalizes every
probabilistic row again.

A goal state's exit rate counts in the uniformisation rate `lambda_max`,
and absorbing it sets that rate to 1, so a timed query on the absorbed
model is asked at the validated model's `lambda_max`: the step counts
follow from it, and they are the same for both models only then.

Corpus: the bundled models, the benchmark families at seed 1 and 150
seed-11 draws of `conftest.random_ma` with its default sizes.

Without the absorbed model, each analysis checks the goal indices itself.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from mama import errors, expected_time, make_absorbing, validate
from mama.timedreach import TimedQuery, timed_reachability

from conftest import MODELS, benchmark_families, load_model, random_ma

REL = 1e-12


def _families():
    for name, ma, goal in benchmark_families(1):
        yield pytest.param(ma, goal, id=f"{name}-1")


def _corpus():
    for path in sorted(MODELS.glob("*.ma")):
        yield pytest.param(*load_model(path.name), id=path.name)
    yield from _families()
    rng = random.Random(11)
    for i in range(150):
        vma, goal = random_ma(rng)
        yield pytest.param(vma.ma, goal, id=f"draw-{i:03d}")


def _answers(vma, goal):
    """Per query, its values or the error it raises."""
    answers = {}
    for mode in ("min", "max"):
        try:
            answers[f"et-{mode}"] = [expected_time(vma, goal, mode).values]
        except errors.MamaError as exc:
            answers[f"et-{mode}"] = (type(exc), str(exc))
    for a in (0.0, 0.5):
        query = TimedQuery(goal=goal, a=a, b=1.0, eps=0.05, mode="both")
        try:
            brackets = timed_reachability(vma, query).brackets
            answers[f"tbr-{a}"] = [bound for pair in brackets.values() for bound in pair]
        except errors.MamaError as exc:
            answers[f"tbr-{a}"] = (type(exc), str(exc))
    return answers


def _agree(xs: list[float], ys: list[float]) -> bool:
    return len(xs) == len(ys) and all(
        x == y or (math.isfinite(x) and math.isclose(x, y, rel_tol=REL, abs_tol=0.0))
        for x, y in zip(xs, ys)
    )


@pytest.mark.parametrize("ma,goal", list(_corpus()))
def test_answers_do_not_read_goal_rows(ma, goal):
    vma = validate(ma)
    absorbed = dataclasses.replace(make_absorbing(vma, goal), lambda_max=vma.lambda_max)
    on_validated = _answers(vma, goal)
    on_absorbed = _answers(absorbed, goal)
    for query, got in on_validated.items():
        want = on_absorbed[query]
        if isinstance(got, tuple) or isinstance(want, tuple):
            assert got == want, query
            continue
        assert all(_agree(x, y) for x, y in zip(got, want, strict=True)), query


@pytest.mark.parametrize("outside", [-1, 6, 99])
def test_goal_indices_outside_the_model_are_rejected(two_mecs, outside):
    # No absorbed model checks the goal set on the way, so each analysis
    # checks it itself, on every timed route.  A negative index would wrap
    # onto the last state.
    vma, _ = two_mecs
    goal = frozenset({0, outside})
    calls = [lambda mode=mode: expected_time(vma, goal, mode) for mode in ("min", "max")]
    calls += [
        lambda a=a, b=b: timed_reachability(vma, TimedQuery(goal=goal, a=a, b=b, eps=0.05))
        for a, b in ((0.0, 0.0), (0.0, 1.0), (0.5, 1.0))
    ]
    for call in calls:
        with pytest.raises(errors.UnknownState, match=f"unknown state index {outside}"):
            call()
