import math
import random

import numpy as np
import pytest

from mama import build_ssp_et, expected_time, graph, make_absorbing, oracle, parse, validate
from mama.cli import run
from mama.errors import UnknownState, ZenoModelError
from mama.exptime import bellman_residual
from mama.mdpsolve import SspAction
from mama.model import BOT, ValidatedMA

from conftest import MODELS, chain_absorption_hitting, mk, random_ctmc, random_ma


def test_build_ssp_et_markovian_state():
    vma = validate(mk("s", markov={"s": [("g", 2.0)]}))
    goal = {vma.index_of("g")}
    inst = build_ssp_et(make_absorbing(vma, goal), goal)
    (act,) = inst.actions[vma.index_of("s")]
    assert act.label == BOT
    assert act.cost == pytest.approx(0.5)
    assert dict(act.dist) == {vma.index_of("g"): 1.0}
    assert inst.actions[vma.index_of("g")] == ()


def test_build_ssp_et_probabilistic_state_costs_nothing():
    vma = validate(
        mk(
            "s",
            prob={"s": [("a", [("g", 0.3), ("m", 0.7)])]},
            markov={"m": [("g", 1.0)]},
        )
    )
    goal = {vma.index_of("g")}
    inst = build_ssp_et(make_absorbing(vma, goal), goal)
    (act,) = inst.actions[vma.index_of("s")]
    assert act.cost == 0.0
    assert dict(act.dist) == {vma.index_of("g"): 0.3, vma.index_of("m"): 0.7}


def test_build_ssp_et_parallel_edges():
    vma = validate(
        mk("s", markov={"s": [("a", 1.0), ("a", 2.0), ("b", 3.0)], "b": [("g", 1.0)]})
    )
    goal = {vma.index_of("g")}
    inst = build_ssp_et(make_absorbing(vma, goal), goal)
    (act,) = inst.actions[vma.index_of("s")]
    assert act.cost == pytest.approx(1.0 / 6.0)


def test_exponential_chain():
    vma = validate(mk("s", markov={"s": [("g", 2.0)]}))
    goal = {vma.index_of("g")}
    for mode in ("min", "max"):
        res = expected_time(vma, goal, mode)
        assert res.values[0] == pytest.approx(0.5, abs=1e-9)


def test_choice_between_immediate_and_delayed():
    vma = validate(
        mk(
            "s",
            prob={"s": [("a", [("g", 1.0)]), ("b", [("m", 1.0)])]},
            markov={"m": [("g", 1.0)]},
        )
    )
    goal = {vma.index_of("g")}
    lo = expected_time(vma, goal, "min")
    hi = expected_time(vma, goal, "max")
    assert lo.values[0] == pytest.approx(0.0, abs=1e-12)
    assert hi.values[0] == pytest.approx(1.0, abs=1e-9)
    assert lo.policy[0] == "a"
    assert hi.policy[0] == "b"


def test_erlang3_head_value():
    vma = validate(
        mk("s0", markov={"s0": [("s1", 1.0)], "s1": [("s2", 1.0)], "s2": [("g", 1.0)]})
    )
    goal = {vma.index_of("g")}
    res = expected_time(vma, goal, "min")
    assert res.values[0] == pytest.approx(3.0, abs=1e-9)
    hit = oracle.ctmc_hitting_time(vma, goal)
    assert hit[0] == pytest.approx(3.0, abs=1e-12)


def test_zeno_models_rejected():
    vma = validate(
        mk("p", prob={"p": [("t", [("q", 1.0)])], "q": [("t", [("p", 1.0)])]})
    )
    with pytest.raises(ZenoModelError):
        expected_time(vma, frozenset(), "min")


def test_unreachable_goal_is_infinite():
    vma = validate(mk("s", markov={"s": [("s", 1.0)], "g": [("g", 1.0)]}, states=["s", "g"]))
    res = expected_time(vma, {vma.index_of("g")}, "min")
    assert math.isinf(res.values[0])
    assert res.values[1] == 0.0


def test_ctmc_equivalence_small():
    rng = random.Random(67)
    for _ in range(30):
        vma, goal = random_ctmc(rng, max_states=15)
        reference = oracle.ctmc_hitting_time(vma, goal)
        for mode in ("min", "max"):
            res = expected_time(vma, goal, mode, tol=1e-12)
            for got, want in zip(res.values, reference):
                if math.isinf(want):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(want, abs=1e-8)


def test_min_below_max():
    rng = random.Random(71)
    for _ in range(20):
        vma, goal = random_ma(rng)
        lo = expected_time(vma, goal, "min").values
        hi = expected_time(vma, goal, "max").values
        for a, b in zip(lo, hi):
            assert a <= b + 1e-9


def test_rate_scaling():
    # scaling all rates by kappa divides every finite expected time by kappa
    rng = random.Random(73)
    for _ in range(5):
        vma, goal = random_ma(rng, max_states=6)
        base = expected_time(vma, goal, "min", tol=1e-12).values
        for kappa in (0.5, 2.0, 10.0):
            scaled_markov = {
                vma.name(s): [
                    (vma.name(t), r * kappa) for t, r in vma.ma.markov_edges[s]
                ]
                for s in range(vma.n)
                if vma.ma.markov_edges[s]
            }
            prob = {
                vma.name(s): [
                    (label, [(vma.name(t), p) for t, p in dist])
                    for label, dist in vma.ma.prob_transitions[s]
                ]
                for s in range(vma.n)
                if vma.ma.prob_transitions[s]
            }
            scaled = validate(
                mk(
                    vma.name(vma.initial),
                    prob=prob,
                    markov=scaled_markov,
                    states=list(vma.states),
                )
            )
            values = expected_time(scaled, goal, "min", tol=1e-12).values
            for a, b in zip(base, values):
                if math.isinf(a):
                    assert math.isinf(b)
                else:
                    assert b == pytest.approx(a / kappa, abs=1e-8, rel=1e-8)


def test_zero_iff_goal_or_zero_time_route():
    rng = random.Random(79)
    for _ in range(20):
        vma, goal = random_ma(rng)
        res = expected_time(vma, goal, "min", tol=1e-12)
        for s in range(vma.n):
            if s in goal:
                assert res.values[s] == 0.0
            elif res.values[s] == 0.0:
                # must reach the goal through probabilistic moves only
                frontier, seen = [s], {s}
                hit = False
                while frontier:
                    x = frontier.pop()
                    if x in goal:
                        hit = True
                        break
                    if x not in vma.ps:
                        continue
                    for _, dist in vma.ma.prob_transitions[x]:
                        for t, _ in dist:
                            if t not in seen:
                                seen.add(t)
                                frontier.append(t)
                assert hit


def test_bellman_fixpoint_certificate():
    rng = random.Random(83)
    for _ in range(10):
        vma, goal = random_ma(rng)
        tol = 1e-10
        res = expected_time(vma, goal, "min", tol=tol)
        absorbed = make_absorbing(vma, goal)
        assert bellman_residual(absorbed, goal, res.values, "min") <= tol


@pytest.mark.parametrize(
    "goal, mode, size, error",
    [
        ({99}, "min", 6, UnknownState),
        ({-1}, "min", 6, UnknownState),
        (None, "foo", 6, ValueError),
        (None, "min", 2, ValueError),
    ],
)
def test_bellman_residual_rejects_bad_input(two_mecs, goal, mode, size, error):
    # Goal 99 or -1 once gave 1.2, mode "foo" inf, a short list IndexError.
    vma, model_goal = two_mecs
    with pytest.raises(error):
        bellman_residual(vma, model_goal if goal is None else goal, [0.0] * size, mode)


def test_bellman_residual_flags_a_misplaced_infinity(two_mecs):
    # s4 reaches the goal in one jump: an infinite value there is no fixpoint.
    vma, goal = two_mecs
    absorbed = make_absorbing(vma, goal)
    values = expected_time(vma, goal, "min", tol=1e-12).values
    assert bellman_residual(absorbed, goal, values, "min") <= 1e-12
    values[vma.index_of("s4")] = math.inf
    assert bellman_residual(absorbed, goal, values, "min") == math.inf


def test_matches_policy_enumeration():
    rng = random.Random(89)
    for _ in range(25):
        vma, goal = random_ma(rng, max_states=6)
        for mode in ("min", "max"):
            got = expected_time(vma, goal, mode, tol=1e-12).values
            absorbed = make_absorbing(vma, goal)
            better = min if mode == "min" else max
            best = None
            from conftest import all_state_policies

            for policy in all_state_policies(absorbed):
                vals = chain_absorption_hitting(absorbed, policy, goal)
                best = vals if best is None else [
                    better(a, b) for a, b in zip(best, vals)
                ]
            for a, b in zip(got, best):
                if math.isinf(b):
                    assert math.isinf(a)
                else:
                    assert a == pytest.approx(b, abs=1e-7)


@pytest.mark.parametrize("bad", [-1, 99])
def test_build_ssp_et_rejects_a_goal_outside_the_model(two_mecs, bad):
    # With goal 99 the instance would have no goal state for a solver to reach.
    vma, _ = two_mecs
    with pytest.raises(UnknownState) as info:
        build_ssp_et(vma, {bad})
    assert info.value.state == bad


# An absorbing initial goal beside an unreachable zero-time cycle, which
# either never leaves (closed) or may leave for the goal (leaky).
HEADER = "#INITIAL\nm\n#GOALS\nm\n#TRANSITIONS\nm !\n* m 1\n"
REPROS = {
    "closed": "p a\n* q 1\nq a\n* p 1\n",
    "leaky": "p a\n* q 0.5\n* m 0.5\nq a\n* p 1\n",
}


def _repro(cycle):
    ma, goal = parse(HEADER + cycle)
    return validate(ma), goal


def _seed_11_draws():
    """The seed-11 draws of test_flat.py and of test_goal_rows.py."""
    rng = random.Random(11)
    for _ in range(150):
        yield random_ma(rng, max_states=10, max_actions=3)
    rng = random.Random(11)
    for _ in range(150):
        yield random_ma(rng)


def test_et_query_reads_the_kernel_not_row_objects(monkeypatch, capsys, tmp_path):
    # Both modes of an et query solve arrays cut from the model's kernel:
    # no `SspAction` is made and the `enabled` view is never read.
    made, read = [], []
    init, enabled = SspAction.__init__, ValidatedMA.enabled
    monkeypatch.setattr(SspAction, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    monkeypatch.setattr(ValidatedMA, "enabled", lambda self, s: read.append(s) or enabled(self, s))
    model = tmp_path / "repro.ma"
    model.write_text(HEADER + REPROS["leaky"])
    for path in (model, MODELS / "two_mecs.ma", MODELS / "queue.ma"):
        code = run(["run", str(path), "--query", "et", "--policy", "--stats", "--output", "json"])
        assert code == 0
    capsys.readouterr()
    vma, goal = _repro(REPROS["closed"])
    for mode in ("min", "max"):
        expected_time(vma, goal, mode)
    assert made == [] and read == []
    assert "branch" not in vma.__dict__
    # The view still answers for whoever reads it.
    assert build_ssp_et(vma, goal).actions[vma.index_of("p")] == (
        SspAction("a", 0.0, ((vma.index_of("q"), 1.0),)),
    )
    assert made


def test_minimum_refines_only_where_the_zero_time_peel_gets_stuck(monkeypatch):
    # Every zero-cost end component is a zero-time cycle, so it lies among
    # the states the peel leaves stuck; refining those alone finds the
    # components a refinement of every non-goal probabilistic state finds.
    refine = graph._refine_end_components
    asked = []
    monkeypatch.setattr(
        graph, "_refine_end_components", lambda vma, states: asked.append(states) or refine(vma, states)
    )
    models = [_repro(cycle) for cycle in REPROS.values()] + list(_seed_11_draws())
    found = 0
    for vma, goal in models:
        asked.clear()
        expected_time(vma, goal, "min")
        stuck = np.flatnonzero(graph.zero_time_stuck(vma, vma.ps - goal)).tolist()
        assert asked == ([stuck] if stuck else [])
        assert refine(vma, stuck) == refine(vma, vma.ps - goal)
        found += bool(stuck)
    # The repros and the draws a tbr query refuses (34 small, 24 default-size).
    assert found == 2 + 34 + 24


@pytest.mark.parametrize("cycle,value", [("closed", "inf"), ("leaky", "0.0")])
def test_unreachable_zero_time_cycle_answers_expected_time(capsys, tmp_path, cycle, value):
    model = tmp_path / "repro.ma"
    model.write_text(HEADER + REPROS[cycle])
    assert run(["run", str(model), "--query", "et", "--mode", "both"]) == 0
    assert f"p [{value}, {value}]" in capsys.readouterr().out.splitlines()
