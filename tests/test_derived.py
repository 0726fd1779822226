"""Structure derived once per model: action rows, MECs, Zeno verdict and
the absorbed model of each goal, all read from the model's one kernel.

`graph.action_rows`, `graph.mecs`, `graph.check_non_zeno` and
`make_absorbing` store their result on the `ValidatedMA` they are given,
and `validate` builds the kernel they read (`ValidatedMA.kernel`).
These tests count the workers behind them, so the public names (which the
benchmark tracer wraps) stay untouched, and check that sharing one model
between queries changes no value and no policy.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from mama import cli, errors, expected_time, graph, lra, make_absorbing, model, validate
from mama.cli import run
from mama.timedreach import TimedQuery, timed_reachability

from conftest import MODELS, load_model, mk, random_ma

BUNDLED = sorted(p.name for p in MODELS.glob("*.ma"))


def _count(monkeypatch, attr: str) -> list[int]:
    calls = [0]
    worker = getattr(graph, attr)

    def counted(vma):
        calls[0] += 1
        return worker(vma)

    monkeypatch.setattr(graph, attr, counted)
    return calls


@pytest.mark.parametrize(
    "query_args",
    [["et"], ["lra"], ["tbr", "--to", "1"]],
    ids=["et", "lra", "tbr"],
)
def test_one_refinement_and_one_zeno_check_per_run(monkeypatch, capsys, query_args):
    refinements = _count(monkeypatch, "_decompose")
    zeno_checks = _count(monkeypatch, "_zeno_witness")
    code = run(
        ["run", str(MODELS / "two_mecs.ma"), "--query", *query_args,
         "--mode", "both", "--stats", "--output", "json"]
    )
    capsys.readouterr()
    assert code == 0
    assert refinements[0] == 1
    assert zeno_checks[0] == 1


@pytest.mark.parametrize(
    "query_args,rows_of",
    [
        (["et", "--policy"], ["validated"]),
        (["lra", "--policy"], ["validated"]),
        (["tbr", "--to", "1"], ["validated"]),
    ],
    ids=["et", "lra", "tbr"],
)
def test_one_row_build_per_model(monkeypatch, capsys, query_args, rows_of):
    # Every reader of a model shares its one stored `ActionRows` and its
    # one kernel of all states.  A query has one model, the validated one,
    # whose goal rows every pass masks: the graph passes of expected time
    # and the `--stats` MEC count read its one `ActionRows`, derived from
    # its kernel.  The Zeno check peels that kernel, and a timed query
    # cuts its zero-time levels and m-phases from it; its only rows are
    # those of the MEC count.
    built = []
    validated = []

    class Counted(graph.ActionRows):
        def __init__(self, vma):
            built.append((vma, self))
            super().__init__(vma)

    def recorded(ma):
        validated.append(model.validate(ma))
        return validated[-1]

    monkeypatch.setattr(graph, "ActionRows", Counted)
    monkeypatch.setattr(cli, "validate", recorded)
    code = run(
        ["run", str(MODELS / "two_mecs.ma"), "--query", *query_args,
         "--mode", "both", "--stats", "--output", "json"]
    )
    capsys.readouterr()
    assert code == 0
    (vma,) = validated
    named = {id(vma): "validated"}
    assert [named.get(id(v)) for v, _ in built] == rows_of
    assert all(v._derived.get("rows") is rows for v, rows in built)
    # The rows read the kernel `validate` built.
    assert all(rows.label is v.kernel.label for v, rows in built)


def test_mecs_returns_a_fresh_list(two_mecs):
    vma, _ = two_mecs
    first = graph.mecs(vma)
    expected = list(first)
    first.clear()
    assert graph.mecs(vma) == expected
    second = graph.mecs(vma)
    second.reverse()
    second.append(expected[0])
    assert graph.mecs(vma) == expected


def test_make_absorbing_gets_its_own_decomposition(monkeypatch, two_mecs):
    vma, goal = two_mecs
    refinements = _count(monkeypatch, "_decompose")
    before = graph.mecs(vma)
    absorbed = make_absorbing(vma, goal)
    after = graph.mecs(absorbed)
    assert refinements[0] == 2
    assert after != before
    assert after == list(graph._decompose(absorbed))
    assert graph.mecs(vma) == before
    assert refinements[0] == 3  # the direct call above, no cached re-run


def test_one_absorbed_model_per_goal(monkeypatch, two_mecs):
    # Neither expected time nor a timed query builds an absorbed model;
    # `make_absorbing` builds one per goal and stores it.
    vma, goal = two_mecs
    built = []
    absorb = model._absorb

    def counted(v, g):
        built.append(g)
        return absorb(v, g)

    monkeypatch.setattr(model, "_absorb", counted)
    expected_time(vma, goal, "min")
    expected_time(vma, goal, "max")
    timed_reachability(vma, TimedQuery(goal=goal, a=0.0, b=1.0, eps=0.05, mode="both"))
    assert built == []
    absorbed = make_absorbing(vma, list(goal))
    assert built == [frozenset(goal)]
    assert make_absorbing(vma, set(goal)) is absorbed
    other = make_absorbing(vma, {vma.initial})
    assert other is not absorbed
    assert other != absorbed
    assert make_absorbing(vma, ()) is vma
    assert len(built) == 2


def test_threads_racing_on_first_use_see_one_stored_value():
    # A chain of 60 two-state end components: long enough to refine that
    # the threads overlap inside the first computation.
    prob = {f"p{i}": [("stay", [(f"m{i}", 1.0)]), ("go", [(f"m{i + 1}", 1.0)])]
            for i in range(60)}
    markov = {f"m{i}": [(f"p{i}", 1.0)] for i in range(60)}
    markov["m60"] = [("m60", 1.0)]
    vma = validate(mk("p0", prob=prob, markov=markov))
    results: list[tuple[list, object]] = []
    start = threading.Barrier(6)

    def worker():
        start.wait()
        results.append((graph.mecs(vma), graph.check_non_zeno(vma), graph.action_rows(vma)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 6
    stored = graph.mecs(vma)
    assert len(stored) == 61
    for found, zeno, rows in results:
        assert zeno is None
        assert all(a is b for a, b in zip(found, stored, strict=True))
        assert rows is graph.action_rows(vma) is vma._derived["rows"]
        assert rows.label is vma.kernel.label


def _answer(solver, vma, goal, mode):
    try:
        res = solver(vma, goal, mode)
    except errors.ZenoModelError as exc:
        return "zeno", str(exc)
    if solver is lra:
        return res.values, res.per_mec, res.mecs, res.policy
    return res.values, res.policy, res.iterations


def _models():
    for name in BUNDLED:
        yield pytest.param(*load_model(name), id=name)
    rng = random.Random(2024)
    for i in range(20):
        vma, goal = random_ma(rng, max_states=8, max_actions=2)
        yield pytest.param(vma.ma, goal, id=f"random_ma-{i}")


@pytest.mark.parametrize("ma,goal", list(_models()))
def test_shared_model_gives_the_same_answers_as_fresh_ones(ma, goal):
    shared = validate(ma)
    for solver in (lra, expected_time):
        for mode in ("min", "max"):
            on_shared = _answer(solver, shared, goal, mode)
            on_fresh = _answer(solver, validate(ma), goal, mode)
            assert on_shared == on_fresh, (solver.__name__, mode)
