import math
import random

import numpy as np
import pytest

from mama import SspAction, SspInstance, build_ssp_et, solve_ssp, validate, zero_time_reach
from mama.errors import NotConverged, UnknownState, ZenoSubgraph
from mama.mdpsolve import ZeroTimePropagator

from conftest import mk, random_ma, reference_kernel


def ssp(actions, goal, terminal=None, names=None):
    n = len(actions)
    names = tuple(names or (f"s{i}" for i in range(n)))
    terminal = terminal or {g: 0.0 for g in goal}
    return SspInstance(
        names=names,
        actions=tuple(tuple(a) for a in actions),
        goal=frozenset(goal),
        terminal=tuple(sorted(terminal.items())),
    )


def test_single_action_to_goal():
    inst = ssp([[SspAction("a", 3.0, ((1, 1.0),))], []], goal={1})
    res = solve_ssp(inst, "min")
    assert res.values[0] == pytest.approx(3.0, abs=1e-9)
    assert res.policy == {0: "a"}


def test_min_picks_cheaper_and_tie_breaks_lexicographically():
    inst = ssp(
        [[SspAction("b", 1.0, ((1, 1.0),)), SspAction("c", 2.0, ((1, 1.0),))], []],
        goal={1},
    )
    res = solve_ssp(inst, "min")
    assert res.values[0] == pytest.approx(1.0)
    assert res.policy[0] == "b"
    # exact value tie: the smaller label wins
    tie = ssp(
        [[SspAction("z", 1.0, ((1, 1.0),)), SspAction("a", 1.0, ((1, 1.0),))], []],
        goal={1},
    )
    assert solve_ssp(tie, "min").policy[0] == "a"
    assert solve_ssp(tie, "max").policy[0] == "a"


def test_geometric_loop():
    # stay with probability 1/2 at cost 1, else reach the goal: value 2
    inst = ssp(
        [[SspAction("a", 1.0, ((0, 0.5), (1, 0.5)))], []],
        goal={1},
    )
    res = solve_ssp(inst, "min", tol=1e-12)
    assert res.values[0] == pytest.approx(2.0, abs=1e-10)


def test_terminal_costs_enter_values():
    inst = ssp(
        [[SspAction("a", 0.0, ((1, 0.25), (2, 0.75)))], [], []],
        goal={1, 2},
        terminal={1: 4.0, 2: 0.0},
    )
    res = solve_ssp(inst, "min")
    assert res.values[0] == pytest.approx(1.0, abs=1e-9)


def test_infinite_states_are_held():
    inst = ssp(
        [[SspAction("a", 1.0, ((1, 1.0),))], [SspAction("a", 1.0, ((1, 1.0),))], []],
        goal={2},
    )
    res = solve_ssp(inst, "min", infinite={1})
    assert math.isinf(res.values[1])
    assert math.isinf(res.values[0])  # only route runs through the held state


def test_not_converged():
    inst = ssp(
        [[SspAction("a", 1.0, ((0, 0.5), (1, 0.5)))], []],
        goal={1},
    )
    with pytest.raises(NotConverged):
        solve_ssp(inst, "min", tol=1e-13, max_iters=3)


@pytest.mark.parametrize(
    "cost,dist,terminal,match",
    [
        (math.nan, ((1, 1.0),), 0.0, "s0/a"),
        (1.0, ((1, 1.0),), math.nan, "terminal"),
        (1.0, ((0, 1.0), (1, math.nan)), 0.0, "s0/a"),
        (1.0, ((0, -0.5), (1, 1.5)), 0.0, "s0/a"),
    ],
    ids=["nan-cost", "nan-terminal", "nan-probability", "negative-probability"],
)
def test_nan_and_negative_input_is_rejected(cost, dist, terminal, match):
    # NaN fails every comparison, so each check is written to fail on it.
    inst = ssp([[SspAction("a", cost, dist)], []], goal={1}, terminal={1: terminal})
    for mode in ("min", "max"):
        with pytest.raises(ValueError, match=match):
            solve_ssp(inst, mode, max_iters=100)


@pytest.mark.parametrize(
    "dist,goal,match",
    [
        (((7, 1.0),), {1}, r"s0/a has entry \(7, 1\.0\)"),
        (((-1, 1.0),), {1}, r"s0/a has entry \(-1, 1\.0\)"),
        (((1, 1.0),), {5}, "goal state 5"),
    ],
    ids=["successor-past-the-end", "negative-successor", "goal-past-the-end"],
)
def test_out_of_range_indices_are_rejected(dist, goal, match):
    # A negative index would wrap to the last state, and one past the end
    # would fail inside the sweep.
    inst = ssp([[SspAction("a", 1.0, dist)], []], goal=goal)
    for mode in ("min", "max"):
        with pytest.raises(ValueError, match=match):
            solve_ssp(inst, mode, max_iters=100)


@pytest.mark.parametrize(
    "infinite,match",
    [
        ({-1}, "infinite state -1 is not one of the 3 states"),
        ({7}, "infinite state 7 is not one of the 3 states"),
        ({2}, "goal state 2 cannot be held at inf"),
        ({0, 2}, "goal state 2 cannot be held at inf"),
    ],
    ids=["negative", "past-the-end", "goal", "goal-beside-a-state"],
)
def test_infinite_states_outside_the_non_goal_states_are_rejected(infinite, match):
    # A negative index would wrap onto the goal state and one past the end
    # would fail inside numpy; a goal state held at inf would turn every
    # value infinite.
    chain = ssp(
        [[SspAction("a", 1.0, ((1, 1.0),))], [SspAction("a", 1.0, ((2, 1.0),))], []],
        goal={2},
    )
    assert solve_ssp(chain, "min").values == [2.0, 1.0, 0.0]
    for mode in ("min", "max"):
        with pytest.raises(ValueError, match=match):
            solve_ssp(chain, mode, infinite=infinite)


def test_infinite_cost_gives_infinite_value():
    inst = ssp([[SspAction("a", math.inf, ((1, 1.0),))], []], goal={1})
    for mode in ("min", "max"):
        assert solve_ssp(inst, mode).values == [math.inf, 0.0]


def test_min_below_max_everywhere():
    rng = random.Random(53)
    for _ in range(20):
        vma, goal = random_ma(rng)
        from mama import graph, make_absorbing

        absorbed = make_absorbing(vma, goal)
        inst = build_ssp_et(absorbed, goal)
        fin_min = graph.almost_sure_reach(absorbed, goal, "max")
        fin_max = graph.almost_sure_reach(absorbed, goal, "min")
        lo = solve_ssp(inst, "min", infinite=frozenset(range(vma.n)) - fin_min)
        hi = solve_ssp(inst, "max", infinite=frozenset(range(vma.n)) - fin_max)
        for a, b in zip(lo.values, hi.values):
            assert a <= b + 1e-9


def test_fixpoint_residual_and_monotone_iterates():
    rng = random.Random(59)
    for _ in range(10):
        vma, goal = random_ma(rng)
        from mama import graph, make_absorbing

        absorbed = make_absorbing(vma, goal)
        inst = build_ssp_et(absorbed, goal)
        finite = graph.almost_sure_reach(absorbed, goal, "max")
        infinite = frozenset(range(vma.n)) - finite
        tol = 1e-10
        res = solve_ssp(inst, "min", tol=tol, infinite=infinite)
        # applying the Bellman operator once more moves nothing beyond tol
        sweep = reference_kernel(
            (s for s in range(inst.n) if s not in inst.goal | infinite),
            inst.actions.__getitem__,
        )
        cost = np.array([act.cost for act in sweep.acts])

        def apply(x):
            out = x.copy()
            out[sweep.upd] = sweep.optimum(cost + sweep.expect(x), "min")
            return out

        v = np.array(res.values)
        again = apply(v)
        finite_idx = [s for s in sweep.upd if not math.isinf(v[s])]
        assert max(
            (abs(again[s] - v[s]) for s in finite_idx), default=0.0
        ) <= tol
        # iterates grow monotonically from the zero start
        prev = np.zeros(inst.n)
        for g, value in inst.terminal:
            prev[g] = value
        for s in infinite:
            prev[s] = np.inf
        for _ in range(30):
            nxt = apply(prev)
            assert np.all(nxt[sweep.upd] >= prev[sweep.upd] - 1e-12)
            prev = nxt


def test_policy_evaluation_consistency():
    # evaluating the returned stationary policy reproduces the values
    rng = random.Random(61)
    from mama import graph, make_absorbing
    from conftest import chain_absorption_hitting

    for _ in range(20):
        vma, goal = random_ma(rng)
        absorbed = make_absorbing(vma, goal)
        inst = build_ssp_et(absorbed, goal)
        finite = graph.almost_sure_reach(absorbed, goal, "max")
        infinite = frozenset(range(vma.n)) - finite
        tol = 1e-11
        res = solve_ssp(inst, "min", tol=tol, infinite=infinite)
        policy = {s: res.policy[s] for s in absorbed.ps if s in res.policy}
        if set(policy) != set(absorbed.ps):
            continue  # some probabilistic state is held at infinity
        evaluated = chain_absorption_hitting(absorbed, policy, goal)
        for s in range(vma.n):
            if math.isinf(res.values[s]) or math.isinf(evaluated[s]):
                continue
            assert res.values[s] == pytest.approx(evaluated[s], abs=10 * tol)


def test_zero_time_reach_one_step():
    vma = validate(
        mk(
            "p",
            prob={"p": [("a", [("m1", 0.6), ("m2", 0.4)])]},
            markov={"m1": [("m1", 1.0)], "m2": [("m2", 1.0)]},
        )
    )
    m1, m2 = vma.index_of("m1"), vma.index_of("m2")
    values = zero_time_reach(vma, {m1: 1.0, m2: 0.0}, "max")
    assert values[vma.index_of("p")] == pytest.approx(0.6)


def test_zero_time_reach_chain():
    vma = validate(
        mk(
            "p",
            prob={"p": [("a", [("q", 1.0)])], "q": [("a", [("m", 1.0)])]},
            markov={"m": [("m", 1.0)]},
        )
    )
    m = vma.index_of("m")
    values = zero_time_reach(vma, {m: 0.7}, "min")
    assert values[vma.index_of("p")] == pytest.approx(0.7)
    assert values[vma.index_of("q")] == pytest.approx(0.7)


def test_zero_time_reach_two_mecs_model(two_mecs):
    vma, _ = two_mecs
    terminal = {s: 0.0 for s in vma.ms}
    terminal[vma.index_of("s2")] = 1.0
    for mode in ("min", "max"):
        values = zero_time_reach(vma, terminal, mode)
        assert values[vma.index_of("s1")] == pytest.approx(0.4)


@pytest.mark.parametrize("outside", [-1, 99])
def test_zero_time_reach_rejects_terminal_states_outside_the_model(two_mecs, outside):
    # -1 would wrap onto the last state and 99 fail inside numpy.
    vma, _ = two_mecs
    terminal = {s: 0.5 for s in vma.ms}
    terminal[outside] = 1.0
    for mode in ("min", "max"):
        with pytest.raises(UnknownState):
            zero_time_reach(vma, terminal, mode)


def test_zero_time_reach_rejects_cycles():
    vma = validate(
        mk(
            "p",
            prob={"p": [("a", [("q", 1.0)])], "q": [("a", [("p", 1.0)])]},
            markov={"m": [("m", 1.0)]},
            states=["p", "q", "m"],
        )
    )
    with pytest.raises(ZenoSubgraph):
        zero_time_reach(vma, {vma.index_of("m"): 1.0}, "max")


def layered_ma(rng: random.Random, layers=4, width=3, n_markov=4):
    """Random non-Zeno MA whose probabilistic states form `layers` levels.

    A probabilistic state of layer i moves only to Markovian states and to
    layers below i, and its first action always touches layer i-1, so the
    zero-time dependency graph is acyclic with exactly `layers` levels.
    """
    ms = [f"m{i}" for i in range(n_markov)]
    ps = [[f"p{i}_{j}" for j in range(width)] for i in range(layers)]
    everything = ms + [p for layer in ps for p in layer]
    markov = {
        m: [(t, rng.uniform(0.5, 4.0)) for t in rng.sample(everything, 2)]
        for m in ms
    }
    prob = {}
    for i, layer in enumerate(ps):
        below = ms + [p for lower in ps[:i] for p in lower]
        for p in layer:
            blocks = []
            for a in range(rng.randint(1, 3)):
                support = rng.sample(below, min(len(below), rng.randint(1, 3)))
                if a == 0 and i > 0:
                    support = [rng.choice(ps[i - 1])] + [
                        t for t in support if t not in ps[i - 1]
                    ]
                weights = [rng.uniform(0.1, 1.0) for _ in support]
                total = sum(weights)
                blocks.append(
                    (f"a{a}", [(t, w / total) for t, w in zip(support, weights)])
                )
            prob[p] = blocks
    return validate(mk(ms[0], prob=prob, markov=markov, states=everything))


def recursive_zero_time(vma, fixed, mode):
    """Per-state recursion: optimal expectation over probabilistic moves."""
    memo = dict(fixed)

    def value(s):
        if s not in memo:
            options = [
                sum(p * value(t) for t, p in dist)
                for _, dist in vma.ma.prob_transitions[s]
            ]
            memo[s] = min(options) if mode == "min" else max(options)
        return memo[s]

    return [value(s) for s in range(vma.n)]


def test_levelled_zero_time_matches_per_state_recursion():
    from mama import discretise, make_absorbing, step_bounded_reach

    rng = random.Random(67)
    for _ in range(6):
        vma = layered_ma(rng)
        depth = {}

        def level(s):
            if s not in depth:
                depth[s] = 1 + max(
                    (level(t) for _, d in vma.ma.prob_transitions[s] for t, _ in d
                     if t in vma.ps),
                    default=0,
                )
            return depth[s]

        assert max(level(s) for s in vma.ps) >= 3
        assert any(len(vma.ma.prob_transitions[s]) >= 2 for s in vma.ps)

        for mode in ("min", "max"):
            terminal = {s: rng.random() for s in vma.ms}
            expect = recursive_zero_time(vma, terminal, mode)
            got = zero_time_reach(vma, terminal, mode)
            assert set(got) == set(vma.ps)
            for s, value in got.items():
                assert value == pytest.approx(expect[s], abs=1e-12)

            goal = frozenset(rng.sample(range(vma.n), 2))
            absorbed = make_absorbing(vma, goal)
            dma = discretise(absorbed, 0.05)
            held = {s: 1.0 if s in goal else 0.0 for s in absorbed.ms}
            ref = recursive_zero_time(absorbed, held, mode)
            for k in range(9):
                got = step_bounded_reach(dma, goal, k, mode)
                for s in range(vma.n):
                    assert got[s] == pytest.approx(ref[s], abs=1e-12)
                fixed = {
                    s: 1.0 if s in goal else sum(p * ref[t] for t, p in dma.mu[s])
                    for s in absorbed.ms
                }
                ref = recursive_zero_time(absorbed, fixed, mode)


def test_check_rejects_a_non_goal_state_without_actions():
    inst = ssp([[], [SspAction("a", 1.0, ((1, 1.0),))]], goal=())
    with pytest.raises(ValueError, match="non-goal state s0 has no actions"):
        inst.check()
    with pytest.raises(ValueError, match="has no actions"):
        solve_ssp(inst, "min")


def test_zero_time_propagation_needs_every_markovian_value(two_mecs):
    vma, _ = two_mecs
    missing = min(vma.ms)
    with pytest.raises(ValueError, match=rf"missing \[{missing}\]"):
        ZeroTimePropagator(vma, frozenset(vma.ms) - {missing})
