import math
import random

import numpy as np
import pytest

from mama import (
    build_ssp_lra,
    lra,
    lra_unichain,
    mecs,
    oracle,
    solve_ssp,
    validate,
)
from mama import longrun
from mama.errors import EmptyMec, NotConverged, UnknownState
from mama.graph import Mec
from mama.mdpsolve import DEFAULT_MAX_ITERS, DEFAULT_TOL
from mama.model import BOT

from conftest import (
    load_model,
    mk,
    random_ctmc,
    random_ma,
    reference_kernel,
    ssp_rows,
    two_cost_rows,
)

FIVE_SIXTHS = 5.0 / 6.0


def test_single_state_in_goal():
    vma = validate(mk("s", markov={"s": [("s", 5.0)]}))
    (mec,) = mecs(vma)
    value, _, _ = lra_unichain(vma, mec, {0}, "min")
    assert value == 1.0
    value, _, _ = lra_unichain(vma, mec, set(), "min")
    assert value == 0.0


def test_lra_rejects_an_unknown_mode_before_any_work(two_mecs):
    vma, goal = two_mecs
    with pytest.raises(ValueError, match="mode must be 'min', 'max' or 'both', got 'avg'"):
        lra(vma, goal, "avg")
    assert vma._derived == {}  # no Zeno check and no MEC decomposition ran


def test_lra_unichain_rejects_an_unknown_mode(two_mecs):
    vma, _ = two_mecs
    # An empty goal would return the ratio 0.0 without reading the mode.
    with pytest.raises(ValueError, match="mode must be 'min', 'max' or 'both', got 'foo'"):
        lra_unichain(vma, mecs(vma)[0], frozenset(), "foo")


def test_two_cost_structure(two_mecs):
    vma, goal = two_mecs
    mec = mecs(vma)[0]
    members, rows = two_cost_rows(vma, mec, goal & vma.ms)
    for s, acts in zip(members, rows):
        for act in acts:
            if s in vma.ms:
                assert act.c2 == pytest.approx(1.0 / vma.exit_rate[s])
                expected_c1 = act.c2 if s in goal else 0.0
                assert act.c1 == pytest.approx(expected_c1)
            else:
                assert act.c1 == act.c2 == 0.0
            assert act.c1 <= act.c2


def test_mec_ratio_five_sixths(two_mecs):
    # embedded stationary weights (0.3125, 0.3125, 0.1875, 0.1875) over
    # (s1, s2, s3, s4) give goal fraction 0.3125 / (0.3125 + 0.0625)
    vma, goal = two_mecs
    mec = mecs(vma)[0]
    for mode in ("min", "max"):
        value, policy, _ = lra_unichain(vma, mec, goal, mode, tol=1e-9)
        assert value == pytest.approx(FIVE_SIXTHS, abs=1e-6)
        assert policy[vma.index_of("s3")] == "beta"


def test_quotient_matches_two_gate_structure(two_mecs):
    vma, goal = two_mecs
    mec_list = mecs(vma)
    inst = build_ssp_lra(vma, mec_list, [FIVE_SIXTHS, 0.0])
    names = list(inst.names)
    assert names == ["s0", "@u1", "@u2", "@q1", "@q2"]
    u1, u2, q1, q2 = (names.index(x) for x in ("@u1", "@u2", "@q1", "@q2"))
    # initial state moves into the first gate with probability one
    rows = ssp_rows(inst)
    (act,) = rows[names.index("s0")]
    assert act.label == BOT and dict(act.dist) == {u1: 1.0}
    # first gate: commit to its sink or leave via s3's alpha to gate two
    labels = {a.label: dict(a.dist) for a in rows[u1]}
    assert labels == {BOT: {q1: 1.0}, "s3.alpha": {u2: 1.0}}
    labels2 = {a.label: dict(a.dist) for a in rows[u2]}
    assert labels2 == {BOT: {q2: 1.0}}
    assert inst.goal == {q1, q2}
    assert dict(inst.terminal) == {q1: FIVE_SIXTHS, q2: 0.0}
    for s in range(inst.n):
        for act in rows[s]:
            assert act.cost == 0.0


def test_single_mec_quotient():
    vma = validate(mk("s", markov={"s": [("t", 1.0)], "t": [("s", 2.0)]}))
    mec_list = mecs(vma)
    assert len(mec_list) == 1
    inst = build_ssp_lra(vma, mec_list, [0.25])
    assert set(inst.names) == {"@u1", "@q1"}
    res_value = lra(vma, {vma.index_of("s")}, "min", tol=1e-9)
    assert all(
        v == pytest.approx(res_value.values[0], abs=1e-9) for v in res_value.values
    )


def test_unreachable_mec_does_not_disturb_initial_value():
    vma = validate(
        mk(
            "s",
            markov={"s": [("s", 1.0)], "iso": [("iso", 3.0)]},
            states=["s", "iso"],
        )
    )
    goal = {vma.index_of("iso")}
    res = lra(vma, goal, "max", tol=1e-9)
    assert res.values[vma.index_of("s")] == pytest.approx(0.0, abs=1e-9)
    assert res.values[vma.index_of("iso")] == pytest.approx(1.0, abs=1e-9)


def test_full_pipeline_two_mecs(two_mecs):
    vma, goal = two_mecs
    hi = lra(vma, goal, "max", tol=1e-9)
    lo = lra(vma, goal, "min", tol=1e-9)
    assert hi.values[vma.initial] == pytest.approx(FIVE_SIXTHS, abs=1e-6)
    assert lo.values[vma.initial] == pytest.approx(0.0, abs=1e-9)
    # witness policies: max commits to the first component under beta,
    # min escapes it through alpha at s3
    assert hi.policy.decisions[0] == "stay"
    assert hi.policy.flat()[vma.index_of("s3")] == "beta"
    s3 = vma.index_of("s3")
    assert lo.policy.decisions[0] == (s3, "alpha")
    assert lo.policy.flat()[s3] == "alpha"


def test_witness_policy_reproduces_value(two_mecs):
    vma, goal = two_mecs
    for mode in ("min", "max"):
        res = lra(vma, goal, mode, tol=1e-9)
        evaluated = oracle.lra_fixed_policy(vma, goal, res.policy.flat())
        assert evaluated[vma.initial] == pytest.approx(
            res.values[vma.initial], abs=1e-6
        )


def test_goal_membership_of_probabilistic_states_is_irrelevant():
    rng = random.Random(97)
    for _ in range(15):
        vma, goal = random_ma(rng)
        with_ps = frozenset(goal | vma.ps)
        for mode in ("min", "max"):
            a = lra(vma, goal, mode, tol=1e-9).values
            b = lra(vma, with_ps, mode, tol=1e-9).values
            assert a == pytest.approx(b, abs=1e-9)


def test_extreme_goal_sets():
    rng = random.Random(101)
    for _ in range(10):
        vma, _ = random_ma(rng)
        zero = lra(vma, frozenset(), "min", tol=1e-9)
        assert all(v == 0.0 for v in zero.values)
        one = lra(vma, frozenset(range(vma.n)), "min", tol=1e-9)
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in one.values)


def test_values_within_unit_interval_and_ordered():
    rng = random.Random(103)
    for _ in range(15):
        vma, goal = random_ma(rng)
        lo = lra(vma, goal, "min", tol=1e-9).values
        hi = lra(vma, goal, "max", tol=1e-9).values
        for a, b in zip(lo, hi):
            assert -1e-9 <= a <= b + 1e-9 <= 1 + 1e-9


def test_complement_identity_fixed_policy():
    # under one fixed policy the goal fraction and its complement add to 1;
    # for optimized values the identity pairs min with the complement's max
    rng = random.Random(107)
    for _ in range(10):
        vma, goal = random_ma(rng)
        goal = frozenset(goal & vma.ms)
        complement = frozenset(vma.ms - goal)
        res = lra(vma, goal, "min", tol=1e-9)
        policy = res.policy.flat()
        if set(policy) != set(vma.ps):
            continue
        direct = oracle.lra_fixed_policy(vma, goal, policy)
        other = oracle.lra_fixed_policy(vma, complement, policy)
        for a, b in zip(direct, other):
            assert a + b == pytest.approx(1.0, abs=1e-9)
        hi = lra(vma, complement, "max", tol=1e-9)
        assert res.values[vma.initial] + hi.values[vma.initial] == pytest.approx(
            1.0, abs=1e-6
        )


def test_pure_ctmc_equals_steady_state():
    rng = random.Random(109)
    done = 0
    while done < 12:
        vma, _ = random_ctmc(rng, max_states=20)
        comps = mecs(vma)
        if len(comps) != 1 or len(comps[0].states) != vma.n:
            continue  # want an ergodic chain
        goal = frozenset(
            s for s in range(vma.n) if rng.random() < 0.4
        )
        pi = oracle.ctmc_steady_state(vma)
        want = sum(pi[s] for s in goal)
        for mode in ("min", "max"):
            got = lra(vma, goal, mode, tol=1e-10).values
            assert got[vma.initial] == pytest.approx(want, abs=1e-7)
        done += 1


def test_unichain_pipeline_consistency():
    # on a single-component model the full pipeline equals the in-component
    # solver up to twice the tolerance
    rng = random.Random(113)
    done = 0
    while done < 10:
        vma, goal = random_ma(rng, max_states=5)
        comps = mecs(vma)
        if len(comps) != 1 or len(comps[0].states) != vma.n:
            continue
        tol = 1e-9
        for mode in ("min", "max"):
            direct, _, _ = lra_unichain(vma, comps[0], goal & vma.ms, mode, tol=tol)
            full = lra(vma, goal, mode, tol=tol).values[vma.initial]
            assert abs(direct - full) <= 2 * tol + 1e-12
        done += 1


def test_matches_policy_enumeration():
    rng = random.Random(127)
    for _ in range(20):
        vma, goal = random_ma(rng, max_states=6)
        for mode in ("min", "max"):
            got = lra(vma, goal, mode, tol=1e-9).values
            want = oracle.enumerate_policies(vma, goal, "lra", mode)
            for a, b in zip(got, want):
                assert a == pytest.approx(b, abs=1e-6)


@pytest.mark.parametrize(
    "budget",
    [
        {"tol": math.nan},
        {"tol": math.inf},
        {"tol": 0.0},
        {"tol": -1e-10},
        {"max_iters": 0},
        {"max_iters": -1},
    ],
)
def test_unmeetable_stopping_rule_is_rejected(two_mecs, budget):
    # Without the check a zero tolerance bisects forever, a NaN one never
    # ends a sweep loop, and no sweep at all leaves nothing to return.
    vma, goal = two_mecs
    mec_list = mecs(vma)
    with pytest.raises(ValueError):
        lra(vma, goal, "max", **budget)
    with pytest.raises(ValueError):
        lra_unichain(vma, mec_list[0], goal, "max", **budget)
    with pytest.raises(ValueError):
        solve_ssp(build_ssp_lra(vma, mec_list, [FIVE_SIXTHS, 0.0]), "max", **budget)


@pytest.mark.parametrize("mode", ["min", "max"])
def test_sweep_budget_exhausted_raises_not_converged(two_mecs, mode):
    # One sweep from zero brackets the first probe's average across zero.
    vma, goal = two_mecs
    with pytest.raises(NotConverged, match="after 1 sweeps"):
        lra_unichain(vma, mecs(vma)[0], goal, mode, max_iters=1)


@pytest.mark.parametrize("tol", [1e-300, 1e-16, 2.0**-53])
def test_tolerance_finer_than_one_ulp_of_one_is_rejected(two_mecs, tol):
    # Near the crossing ratio no probe can decide its sign at this
    # resolution, and no bisection of [0, 1] narrows below one ulp of 1.
    vma, goal = two_mecs
    with pytest.raises(ValueError, match=r"2\*\*-52"):
        lra(vma, goal, "max", tol=tol)
    with pytest.raises(ValueError, match=r"2\*\*-52"):
        lra_unichain(vma, mecs(vma)[0], goal, "max", tol=tol)
    assert lra(vma, goal, "max", tol=longrun.MIN_RATIO_TOL).values


@pytest.fixture(scope="module")
def bisected():
    """(name, model, component, goal) for every component whose ratio
    `lra_unichain` has to bisect for: bundled models and seeded draws."""
    cases = []
    for name in ("two_mecs.ma", "queue.ma"):
        ma, goal = load_model(name)
        cases.append((name, validate(ma), goal))
    rng = random.Random(2024)
    for i in range(80):
        vma, goal = random_ma(rng, max_states=8, max_actions=3)
        cases.append((f"random-{i}", vma, goal))
    found = []
    for name, vma, goal in cases:
        goal = goal & vma.ms
        for j, mec in enumerate(mecs(vma)):
            inside = mec.states & vma.ms
            if goal & inside and not inside <= goal:
                found.append((f"{name}/mec{j}", vma, mec, goal))
    return found


def _probe_setup(vma, mec, goal):
    members, rows = two_cost_rows(vma, mec, goal)
    kernel = reference_kernel(range(len(members)), rows.__getitem__)
    c1 = np.array([act.c1 for act in kernel.acts], dtype=np.float64)
    c2 = np.array([act.c2 for act in kernel.acts], dtype=np.float64)
    return members, kernel, c1, c2


def test_bisected_components_cover_the_bundled_and_random_models(bisected):
    names = {case[0].split("/")[0] for case in bisected}
    assert {"two_mecs.ma", "queue.ma"} <= names
    assert len(bisected) >= 40


@pytest.mark.parametrize("mode", ["min", "max"])
def test_early_stopped_probe_decides_towards_lp_ratio(bisected, mode):
    # g(k) is positive below the optimal ratio and negative above it, so a
    # probe that stops on its bracket must stop on the side facing k*.
    for name, vma, mec, goal in bisected:
        members, kernel, c1, c2 = _probe_setup(vma, mec, goal)
        k_lp = oracle.ratio_lp(vma, mec, goal, mode)
        for delta in (1e-2, 1e-5):
            below, above = longrun._rvi(
                kernel.tile(2, len(members)),
                [c1 - (k_lp - delta) * c2, c1 - (k_lp + delta) * c2],
                [mode, mode], DEFAULT_TOL, DEFAULT_MAX_ITERS, sign_only=True,
            )
            assert below[0] > 0.0, (name, mode, delta, below[:3])
            assert above[1] < 0.0, (name, mode, delta, above[:3])


def _full_span_bisection(vma, mec, goal, mode):
    """The bisection with every probe iterated until its bracket is `tol`
    wide: the reference the sign stop must reproduce."""
    members, kernel, c1, c2 = _probe_setup(vma, mec, goal)
    lo, hi, sweeps = 0.0, 1.0, 0
    while hi - lo > DEFAULT_TOL:
        mid = 0.5 * (lo + hi)
        ((gmin, gmax, used, _),) = longrun._rvi(
            kernel, [c1 - mid * c2], [mode], DEFAULT_TOL, DEFAULT_MAX_ITERS
        )
        sweeps += used
        if 0.5 * (gmin + gmax) > 0.0:
            lo = mid
        else:
            hi = mid
    k_star = 0.5 * (lo + hi)
    cost = c1 - k_star * c2
    ((*_, v),) = longrun._rvi(kernel, [cost], [mode], DEFAULT_TOL, DEFAULT_MAX_ITERS)
    local = kernel.argopt(longrun._damped_rows(kernel, cost, v), mode)
    policy = {
        members[i]: label for i, label in local.items() if members[i] in vma.ps
    }
    return k_star, policy, sweeps


@pytest.mark.parametrize("mode", ["min", "max"])
def test_sign_stop_matches_full_span_bisection(bisected, mode):
    for name, vma, mec, goal in bisected:
        ratio, policy, sweeps = lra_unichain(vma, mec, goal, mode)
        want_ratio, want_policy, full_sweeps = _full_span_bisection(vma, mec, goal, mode)
        assert ratio == want_ratio, name
        assert policy == want_policy, name
        assert isinstance(sweeps, int)
        assert sweeps <= full_sweeps, name


@pytest.mark.parametrize("bad", [-1, 99])
@pytest.mark.parametrize("entry", [lra, lra_unichain, oracle.ratio_lp])
def test_long_run_entry_points_reject_a_goal_outside_the_model(two_mecs, entry, bad):
    # A dropped index would read as a goal never visited: all zeros.
    vma, _ = two_mecs
    args = (vma, {bad}) if entry is lra else (vma, mecs(vma)[0], {bad})
    with pytest.raises(UnknownState) as info:
        entry(*args, "min")
    assert info.value.state == bad


@pytest.mark.parametrize("per_mec", [[0.5], [0.5, 0.1, 0.2]])
def test_build_ssp_lra_needs_one_value_per_component(two_mecs, per_mec):
    # zip would drop the surplus value, or leave a sink without one.
    vma, _ = two_mecs
    mec_list = mecs(vma)
    assert len(mec_list) == 2
    with pytest.raises(ValueError, match="one value per component"):
        build_ssp_lra(vma, mec_list, per_mec)
    with pytest.raises(ValueError, match="one value per component"):
        longrun._quotient(vma, mec_list, per_mec)


@pytest.mark.parametrize("entry", [oracle.ratio_lp, lra_unichain])
def test_an_empty_component_is_rejected(two_mecs, entry):
    vma, goal = two_mecs
    with pytest.raises(EmptyMec):
        entry(vma, Mec(frozenset(), ()), goal, "min")


def test_lra_query_reads_the_kernel_not_row_objects():
    # Both modes of an lra query cut each component from the model's
    # kernel: the `branch` view is never derived.  Every model has a
    # component whose ratio is bisected.
    models = [(validate(ma), goal) for ma, goal in map(load_model, ("two_mecs.ma", "queue.ma"))]
    models.append(random_ma(random.Random(3)))
    for vma, goal in models:
        for mode in ("min", "max"):
            assert any(0.0 < value < 1.0 for value in lra(vma, goal, mode).per_mec)
        assert "branch" not in vma.__dict__
