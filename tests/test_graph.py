import random

import pytest

from mama.errors import UnknownState

from mama import almost_sure_reach, check_non_zeno, make_absorbing, mecs, sccs, validate
from mama.graph import _refine_end_components, _tarjan, action_rows, reach_policy

from conftest import (
    brute_almost_sure,
    brute_end_components,
    brute_sccs,
    load_model,
    mk,
    random_ma,
)


def test_sccs_two_mecs_model(two_mecs):
    vma, _ = two_mecs
    comps = sccs(vma)
    by_names = [frozenset(vma.name(s) for s in c) for c in comps]
    assert by_names == [
        frozenset({"s0"}),
        frozenset({"s1", "s2", "s3", "s4"}),
        frozenset({"s5"}),
    ]


def test_sccs_singleton_self_loop():
    vma = validate(mk("s", markov={"s": [("s", 1.0)]}))
    assert sccs(vma) == [frozenset({0})]


def test_sccs_dag():
    vma = validate(mk("a", markov={"a": [("b", 1.0)], "b": [("c", 1.0)]}))
    assert [len(c) for c in sccs(vma)] == [1, 1, 1]


def test_sccs_against_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        vma, _ = random_ma(rng)
        assert sccs(vma) == brute_sccs(vma)


def test_zeno_two_state_cycle():
    vma = validate(
        mk(
            "p",
            prob={"p": [("t", [("q", 1.0)])], "q": [("t", [("p", 1.0)])]},
        )
    )
    witness = check_non_zeno(vma)
    assert witness is not None
    assert witness.states == {0, 1}


def test_zeno_self_loop_probability():
    vma = validate(
        mk("p", prob={"p": [("t", [("p", 0.5), ("q", 0.5)])]}, markov={"q": [("q", 1.0)]})
    )
    witness = check_non_zeno(vma)
    assert witness is not None and witness.states == {0}


def test_non_zeno_when_cycle_passes_markovian(two_mecs):
    vma, _ = two_mecs
    assert check_non_zeno(vma) is None


def test_unreachable_zeno_cycle_ignored():
    # the probabilistic cycle exists but cannot be reached from the start
    vma = validate(
        mk(
            "s",
            markov={"s": [("s", 1.0)]},
            prob={"p": [("t", [("q", 1.0)])], "q": [("t", [("p", 1.0)])]},
            states=["s", "p", "q"],
        )
    )
    assert check_non_zeno(vma) is None


def test_zeno_by_cycle_enumeration():
    # models small enough to enumerate every probabilistic cycle directly
    rng = random.Random(17)
    checked = 0
    while checked < 30:
        n = rng.randint(2, 6)
        names = [f"s{i}" for i in range(n)]
        prob, markov = {}, {}
        for i in range(n):
            if rng.random() < 0.6:
                t = rng.randrange(n)
                prob[names[i]] = [("t", [(names[t], 1.0)])]
            else:
                markov[names[i]] = [(names[rng.randrange(n)], 1.0)]
        vma = validate(mk("s0", prob=prob, markov=markov, states=names))
        reachable = {0}
        frontier = [0]
        while frontier:
            s = frontier.pop()
            for _, dist in (
                [("!", vma.branch[s])] if s in vma.ms else vma.ma.prob_transitions[s]
            ):
                for t, _ in dist:
                    if t not in reachable:
                        reachable.add(t)
                        frontier.append(t)

        def has_ps_cycle():
            for start in sorted(vma.ps & reachable):
                stack = [start]
                seen = set()
                while stack:
                    s = stack.pop()
                    for _, dist in vma.ma.prob_transitions[s]:
                        for t, _ in dist:
                            if t == start:
                                return True
                            if t in vma.ps and t in reachable and t not in seen:
                                seen.add(t)
                                stack.append(t)
            return False

        assert (check_non_zeno(vma) is not None) == has_ps_cycle()
        checked += 1


def test_mecs_two_mecs_model(two_mecs):
    vma, _ = two_mecs
    result = mecs(vma)
    assert len(result) == 2
    first, second = result
    assert {vma.name(s) for s in first.states} == {"s1", "s2", "s3", "s4"}
    actions = {vma.name(s): set(a) for s, a in first.actions}
    assert actions["s3"] == {"beta"}  # alpha escapes the component
    assert actions["s1"] == {"alpha"}
    assert {vma.name(s) for s in second.states} == {"s5"}


def test_mec_single_self_loop():
    vma = validate(mk("s", markov={"s": [("s", 1.0)]}))
    (m,) = mecs(vma)
    assert m.states == {0}


def test_mecs_against_brute_force():
    rng = random.Random(29)
    for _ in range(40):
        vma, _ = random_ma(rng, max_states=6)
        got = {(m.states, tuple(sorted(m.actions))) for m in mecs(vma)}
        want = {
            (states, tuple(sorted((s, kept[s]) for s in states)))
            for states, kept in brute_end_components(vma)
        }
        assert got == want


def test_mec_refinement_is_fixpoint():
    rng = random.Random(31)
    for _ in range(20):
        vma, _ = random_ma(rng)
        result = mecs(vma)
        for m in result:
            comps = _refine_end_components(vma, m.states)
            assert len(comps) == 1
            comp, kept = comps[0]
            assert frozenset(comp) == m.states
            assert {s: frozenset(a) for s, a in m.actions} == {
                s: frozenset(kept[s]) for s in comp
            }


def _resplit_all(vma, initial_states):
    """The end components by re-splitting every surviving state after each
    pass that changed anything, with one tag per component of a pass."""
    rows = action_rows(vma)
    alive = [s in set(initial_states) for s in range(vma.n)]
    kept = [True] * len(rows.owner)

    def succ(s):
        return [t for r in rows.of[s] if kept[r] for t in rows.support[r] if alive[t]]

    while True:
        members = [s for s in range(vma.n) if alive[s]]
        comps = _tarjan(members, succ)
        comp_of = [-1] * vma.n
        for i, comp in enumerate(comps):
            for s in comp:
                comp_of[s] = i
        changed = False
        for s in members:
            for r in rows.of[s]:
                if kept[r] and any(comp_of[t] != comp_of[s] for t in rows.support[r]):
                    kept[r] = False
                    changed = True
            if not any(kept[r] for r in rows.of[s]):
                alive[s] = False
                changed = True
        if not changed:
            return [
                (comp, {s: {rows.label[r] for r in rows.of[s] if kept[r]} for s in comp})
                for comp in comps
            ]


def _refinement_models():
    for name in ("two_mecs.ma", "queue.ma", "erlang2.ma", "zeno.ma"):
        ma, goal = load_model(name)
        vma = validate(ma)
        yield vma
        yield make_absorbing(vma, goal)
    for trap in (False, True):
        vma, n = _chain(60, trap)
        yield vma
        yield make_absorbing(vma, {n - 1})
    rng = random.Random(53)
    for i in range(3000):
        vma, goal = random_ma(rng, max_states=10 if i % 2 else 8, max_actions=3 if i % 2 else 2)
        yield vma if i % 3 else make_absorbing(vma, goal)


def test_worklist_refinement_equals_whole_model_resplit():
    # Only the components that changed are split again; the result is the
    # one of re-splitting every surviving state after each changing pass.
    for vma in _refinement_models():
        got = _refine_end_components(vma, range(vma.n))
        assert got == _resplit_all(vma, range(vma.n))
        sub = range(0, vma.n, 2)
        assert _refine_end_components(vma, sub) == _resplit_all(vma, sub)


def test_mecs_disjoint_and_connected():
    rng = random.Random(37)
    for _ in range(20):
        vma, _ = random_ma(rng)
        seen = set()
        for m in mecs(vma):
            assert not (m.states & seen)
            seen |= m.states


def _policy_models():
    for name in ("two_mecs.ma", "queue.ma"):
        yield validate(load_model(name)[0])
    rng = random.Random(47)
    for _ in range(100):
        yield random_ma(rng, max_states=10, max_actions=3)[0]


def test_reach_policy_hits_each_member_surely():
    targets = 0
    for vma in _policy_models():
        for mec in mecs(vma):
            kept = mec.action_map()
            for target in sorted(mec.states):
                policy = reach_policy(vma, kept, target)
                assert set(policy) == (mec.states & vma.ps) - {target}
                succ = {}
                for s in mec.states - {target}:
                    if s in vma.ms:
                        dist = vma.branch[s]
                    else:
                        assert policy[s] in kept[s]
                        dist = dict(vma.ma.prob_transitions[s])[policy[s]]
                    succ[s] = {t for t, _ in dist}
                    assert succ[s] <= mec.states
                # The induced chain stays in the component, so it hits the
                # target surely iff every member reaches the target in it:
                # a backward BFS from the target must cover the component.
                reach = {target}
                frontier = [target]
                while frontier:
                    t = frontier.pop()
                    for s, nexts in succ.items():
                        if s not in reach and t in nexts:
                            reach.add(s)
                            frontier.append(s)
                assert reach == mec.states, (mec, target, policy)
                targets += 1
    assert targets > 300


def test_almost_sure_reach_all_goal(two_mecs):
    vma, _ = two_mecs
    everything = frozenset(range(vma.n))
    assert almost_sure_reach(vma, everything, "max") == everything
    assert almost_sure_reach(vma, everything, "min") == everything


def test_almost_sure_reach_two_mecs_model(two_mecs):
    vma, goal = two_mecs
    got_max = {vma.name(s) for s in almost_sure_reach(vma, goal, "max")}
    assert got_max == {"s0", "s1", "s2", "s3", "s4"}
    got_min = {vma.name(s) for s in almost_sure_reach(vma, goal, "min")}
    assert got_min == {"s2", "s4"}


def test_almost_sure_reach_against_brute_force():
    rng = random.Random(41)
    draws = [random_ma(rng, max_states=6) for _ in range(40)]
    draws += [random_ma(rng, max_states=10, max_actions=3) for _ in range(300)]
    for vma, goal in draws:
        for g in (goal, frozenset(), frozenset(range(vma.n))):
            for model in (vma, make_absorbing(vma, g)):
                for mode in ("min", "max"):
                    got = almost_sure_reach(model, g, mode)
                    assert got == brute_almost_sure(model, g, mode), (mode, g, model.ma)


def _chain(n: int, trap: bool):
    """A birth-death chain c0..c(n-1), up rate 2 and down rate 1, goal on top.

    c(n/4) is probabilistic and c(n/2) cannot step down.  With `trap`,
    c(n/4) may also jump to an absorbing t, and c0 is probabilistic: it
    gambles on c1 or t, or loops through u.
    """
    names = [f"c{i}" for i in range(n)]
    k, m = n // 4, n // 2
    markov = {
        names[i]: [(names[i + 1], 2.0)] + ([(names[i - 1], 1.0)] if i not in (0, m) else [])
        for i in range(n - 1)
    }
    markov[names[-1]] = [(names[-1], 1.0)]
    del markov[names[k]]
    prob = {names[k]: [("up", [(names[k + 1], 1.0)])]}
    if trap:
        prob[names[k]].append(("trap", [("t", 1.0)]))
        del markov[names[0]]
        prob[names[0]] = [
            ("back", [("u", 1.0)]),
            ("gamble", [(names[1], 0.5), ("t", 0.5)]),
        ]
        markov["t"] = [("t", 1.0)]
        markov["u"] = [(names[0], 1.0)]
        names += ["t", "u"]
    return validate(mk(names[0], prob=prob, markov=markov, states=names)), n


@pytest.mark.parametrize("trap", [False, True], ids=["plain", "trap"])
def test_almost_sure_reach_on_a_long_chain(trap):
    # Hand-known sets on 4000 states.  Plain: every state reaches the top
    # surely.  With the trap, only c(n/2) and above reach it under every
    # policy; some policy reaches it from c(n/4) up (take "up"), but not
    # from below, where c0 can only gamble on t or loop through u.
    vma, n = _chain(4000, trap)
    goal = {n - 1}
    everything = frozenset(range(vma.n))
    want_min = frozenset(range(n // 2, n)) if trap else everything
    want_max = frozenset(range(n // 4, n)) if trap else everything
    for model in (vma, make_absorbing(vma, goal)):
        assert almost_sure_reach(model, goal, "min") == want_min
        assert almost_sure_reach(model, goal, "max") == want_max


def test_almost_sure_max_contains_min():
    rng = random.Random(43)
    for _ in range(30):
        vma, goal = random_ma(rng)
        assert almost_sure_reach(vma, goal, "max") >= almost_sure_reach(
            vma, goal, "min"
        )


@pytest.mark.parametrize("mode", ["min", "max"])
@pytest.mark.parametrize("bad", [-1, 99])
def test_almost_sure_reach_rejects_a_goal_outside_the_model(two_mecs, mode, bad):
    # Read as an index, -1 would wrap to the last state and 99 fall off the end.
    vma, _ = two_mecs
    with pytest.raises(UnknownState) as info:
        almost_sure_reach(vma, {bad}, mode)
    assert info.value.state == bad
