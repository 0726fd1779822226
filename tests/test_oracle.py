import math
import random

import numpy as np
import pytest

from mama import expected_time, lra_unichain, mecs, oracle, validate
from mama.errors import (
    LpInfeasible,
    LpUnbounded,
    MamaError,
    NotErgodic,
    SingularSystem,
    TooManyPolicies,
    UnknownState,
    ZenoGuardTripped,
)

from conftest import load_model, mk, random_ctmc, random_ma


def test_hitting_time_erlang3():
    vma = validate(
        mk("s0", markov={"s0": [("s1", 1.0)], "s1": [("s2", 1.0)], "s2": [("g", 1.0)]})
    )
    values = oracle.ctmc_hitting_time(vma, {vma.index_of("g")})
    assert values[0] == pytest.approx(3.0, abs=1e-12)


def test_hitting_time_single_edge():
    vma = validate(mk("s", markov={"s": [("g", 2.0)]}))
    values = oracle.ctmc_hitting_time(vma, {vma.index_of("g")})
    assert values[0] == pytest.approx(0.5, abs=1e-15)


def test_hitting_time_matches_expected_time():
    rng = random.Random(139)
    for _ in range(10):
        vma, goal = random_ctmc(rng, max_states=20)
        a = oracle.ctmc_hitting_time(vma, goal)
        b = expected_time(vma, goal, "min", tol=1e-12).values
        for x, y in zip(a, b):
            if math.isinf(x):
                assert math.isinf(y)
            else:
                assert x == pytest.approx(y, abs=1e-8)


def test_hitting_time_rejects_probabilistic_states():
    vma = validate(mk("p", prob={"p": [("a", [("p", 1.0)])]}))
    with pytest.raises(ValueError):
        oracle.ctmc_hitting_time(vma, set())


def test_steady_state_two_state_closed_form():
    alpha, beta = 0.7, 1.9
    vma = validate(mk("a", markov={"a": [("b", alpha)], "b": [("a", beta)]}))
    pi = oracle.ctmc_steady_state(vma)
    assert pi[0] == pytest.approx(beta / (alpha + beta), abs=1e-12)
    assert pi[1] == pytest.approx(alpha / (alpha + beta), abs=1e-12)
    # generator residual: pi Q = 0
    q = np.zeros((2, 2))
    q[0, 1], q[0, 0] = alpha, -alpha
    q[1, 0], q[1, 1] = beta, -beta
    assert np.linalg.norm(np.array(pi) @ q) <= 1e-12


def test_steady_state_symmetric_ring_uniform():
    n = 6
    markov = {f"s{i}": [(f"s{(i+1) % n}", 1.0)] for i in range(n)}
    vma = validate(mk("s0", markov=markov))
    pi = oracle.ctmc_steady_state(vma)
    assert pi == pytest.approx([1.0 / n] * n, abs=1e-12)


def test_steady_state_requires_single_class():
    vma = validate(mk("a", markov={"a": [("a", 1.0)], "b": [("b", 1.0)]}, states=["a", "b"]))
    with pytest.raises(NotErgodic):
        oracle.ctmc_steady_state(vma)


def test_embedded_stationary_two_mecs_component(two_mecs):
    # restriction of the first component under beta: jump chain stationary
    # weights are (0.3125, 0.3125, 0.1875, 0.1875) over (s1, s2, s3, s4)
    vma, _ = two_mecs
    sub = validate(
        mk(
            "s1",
            prob={
                "s1": [("alpha", [("s3", 0.6), ("s2", 0.4)])],
                "s3": [("beta", [("s4", 1.0)])],
            },
            markov={"s4": [("s2", 3.0)], "s2": [("s1", 1.0)]},
        )
    )
    chain_rows = []
    order = [sub.index_of(x) for x in ("s1", "s2", "s3", "s4")]
    pos = {s: i for i, s in enumerate(order)}
    for s in order:
        if s in sub.ms:
            dist = sub.branch[s]
        else:
            dist = sub.ma.prob_transitions[s][0][1]
        chain_rows.append(tuple((pos[t], p) for t, p in dist))
    mu = oracle._stationary_embedded(chain_rows)
    assert list(mu) == pytest.approx([0.3125, 0.3125, 0.1875, 0.1875], abs=1e-12)


def test_lra_fixed_policy_two_mecs(two_mecs):
    vma, goal = two_mecs
    s1 = vma.index_of("s1")
    stay = {s1: "alpha", vma.index_of("s3"): "beta"}
    values = oracle.lra_fixed_policy(vma, goal, stay)
    for name in ("s0", "s1", "s2", "s3", "s4"):
        assert values[vma.index_of(name)] == pytest.approx(5.0 / 6.0, abs=1e-12)
    leave = {s1: "alpha", vma.index_of("s3"): "alpha"}
    values = oracle.lra_fixed_policy(vma, goal, leave)
    assert values[vma.index_of("s0")] == pytest.approx(0.0, abs=1e-12)
    assert values[vma.index_of("s5")] == 0.0


def test_lra_fixed_policy_goal_everything(two_mecs):
    # with every Markovian state in the goal the fraction is one under any
    # policy
    vma, _ = two_mecs
    from conftest import all_state_policies

    for policy in all_state_policies(vma):
        values = oracle.lra_fixed_policy(vma, frozenset(vma.ms), policy)
        assert values == pytest.approx([1.0] * vma.n, abs=1e-12)


def test_enumerate_policies_two_mecs(two_mecs):
    vma, goal = two_mecs
    lo = oracle.enumerate_policies(vma, goal, "lra", "min")
    hi = oracle.enumerate_policies(vma, goal, "lra", "max")
    assert lo[vma.initial] == pytest.approx(0.0, abs=1e-12)
    assert hi[vma.initial] == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_enumerate_policies_et_choice():
    vma = validate(
        mk(
            "s",
            prob={"s": [("a", [("g", 1.0)]), ("b", [("m", 1.0)])]},
            markov={"m": [("g", 1.0)]},
        )
    )
    goal = {vma.index_of("g")}
    assert oracle.enumerate_policies(vma, goal, "et", "min")[0] == 0.0
    assert oracle.enumerate_policies(vma, goal, "et", "max")[0] == pytest.approx(1.0)


def test_enumerate_policies_single_policy_matches_direct_oracle():
    rng = random.Random(163)
    for _ in range(5):
        vma, goal = random_ctmc(rng, max_states=10)
        direct = oracle.ctmc_hitting_time(vma, goal)
        for mode in ("min", "max"):
            got = oracle.enumerate_policies(vma, goal, "et", mode)
            for a, b in zip(got, direct):
                assert (a == b) or (math.isinf(a) and math.isinf(b))


def test_enumerate_policies_guard():
    prob = {
        f"p{i}": [(f"a{j}", [(f"p{(i+1) % 21}", 1.0)]) for j in range(2)]
        for i in range(21)
    }
    markov = {f"p{i}": [] for i in ()}
    vma = validate(mk("p0", prob=prob, markov={"m": [("m", 1.0)]}))
    with pytest.raises(TooManyPolicies):
        oracle.enumerate_policies(vma, set(), "et", "min")


def test_ratio_lp_single_state():
    vma = validate(mk("s", markov={"s": [("s", 1.0)]}))
    (mec,) = mecs(vma)
    assert oracle.ratio_lp(vma, mec, {0}, "min") == pytest.approx(1.0, abs=1e-9)
    assert oracle.ratio_lp(vma, mec, {0}, "max") == pytest.approx(1.0, abs=1e-9)


def test_ratio_lp_two_mecs_component(two_mecs):
    vma, goal = two_mecs
    mec = mecs(vma)[0]
    for mode in ("min", "max"):
        assert oracle.ratio_lp(vma, mec, goal & vma.ms, mode) == pytest.approx(5.0 / 6.0, abs=1e-9)


def test_ratio_lp_matches_bisection():
    rng = random.Random(151)
    done = 0
    while done < 10:
        vma, goal = random_ma(rng, max_states=6)
        goal = frozenset(goal & vma.ms)
        for mec in mecs(vma):
            if not (mec.states & vma.ms):
                continue
            for mode in ("min", "max"):
                via_lp = oracle.ratio_lp(vma, mec, goal, mode)
                via_bisection, _, _ = lra_unichain(vma, mec, goal, mode, tol=1e-9)
                assert via_lp == pytest.approx(via_bisection, abs=1e-6)
            done += 1


def test_ssp_lp_matches_value_iteration():
    # The LP prices every row from the model itself, so a wrong cost in
    # the solver's instance shows as a gap.  The random draws are those
    # whose maximal expected time is finite everywhere, as the LP needs.
    vma = validate(
        mk(
            "s",
            prob={"s": [("a", [("m", 0.5), ("g", 0.5)])]},
            markov={"m": [("g", 2.0), ("s", 1.0)]},
        )
    )
    models = [(vma, frozenset({vma.index_of("g")}))]
    rng = random.Random(157)
    while len(models) < 11:
        vma, goal = random_ma(rng, max_states=6)
        if not any(map(math.isinf, expected_time(vma, goal, "max").values)):
            models.append((vma, goal))
    for vma, goal in models:
        for mode in ("min", "max"):
            via_vi = expected_time(vma, goal, mode, tol=1e-12).values
            via_lp = oracle.expected_time_lp(vma, goal, mode)
            assert via_lp == pytest.approx(via_vi, abs=1e-8)


def test_transient_exponential():
    vma = validate(mk("s", markov={"s": [("g", 1.0)]}))
    goal = {vma.index_of("g")}
    assert oracle.ctmc_transient(vma, goal, 1.0)[0] == pytest.approx(
        1 - math.exp(-1), abs=1e-12
    )
    assert oracle.ctmc_transient(vma, goal, 0.0)[0] == 0.0
    assert oracle.ctmc_transient(vma, goal, 0.0)[vma.index_of("g")] == 1.0


def test_transient_erlang2():
    vma = validate(mk("s0", markov={"s0": [("s1", 1.0)], "s1": [("g", 1.0)]}))
    goal = {vma.index_of("g")}
    want = 1 - 2 * math.exp(-1)
    assert oracle.ctmc_transient(vma, goal, 1.0)[0] == pytest.approx(want, abs=1e-12)


def test_linear_solve_residuals():
    # residual norm of the hitting-time system stays below 1e-10 * |rhs|
    rng = random.Random(157)
    for _ in range(10):
        vma, goal = random_ctmc(rng, max_states=25)
        values = oracle.ctmc_hitting_time(vma, goal)
        finite = [
            s for s in range(vma.n) if s not in goal and not math.isinf(values[s])
        ]
        if not finite:
            continue
        residual = np.array(
            [
                values[s]
                - 1.0 / vma.exit_rate[s]
                - sum(
                    p * values[t]
                    for t, p in vma.branch[s]
                    if not math.isinf(values[t])
                )
                for s in finite
            ]
        )
        rhs = np.array([1.0 / vma.exit_rate[s] for s in finite])
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)


def test_simulate_expected_time():
    vma = validate(mk("s", markov={"s": [("g", 2.0)]}))
    goal = {vma.index_of("g")}
    res = oracle.simulate(vma, {}, "et", goal, n_runs=20000, seed=42)
    assert res.ci_low <= 0.5 <= res.ci_high
    assert abs(res.mean - 0.5) < 0.02


def test_simulate_timed_reachability():
    vma = validate(mk("s", markov={"s": [("g", 1.0)]}))
    goal = {vma.index_of("g")}
    res = oracle.simulate(vma, {}, "tbr", goal, n_runs=20000, seed=7, b=1.0)
    assert res.ci_low <= 1 - math.exp(-1) <= res.ci_high


def test_simulate_lra_two_mecs(two_mecs):
    vma, goal = two_mecs
    policy = {vma.index_of("s1"): "alpha", vma.index_of("s3"): "beta"}
    res = oracle.simulate(vma, policy, "lra", goal, n_runs=200, seed=11, horizon=1e4)
    assert res.ci_low <= 5.0 / 6.0 <= res.ci_high


def test_simulate_reproducible():
    vma = validate(mk("s", markov={"s": [("g", 2.0)]}))
    goal = {vma.index_of("g")}
    a = oracle.simulate(vma, {}, "et", goal, n_runs=500, seed=3)
    b = oracle.simulate(vma, {}, "et", goal, n_runs=500, seed=3)
    assert a == b


@pytest.mark.parametrize("goal", [{-1}, {99}])
def test_chain_oracles_reject_goal_indices_out_of_range(goal):
    # -1 once wrapped to the last state and 99 raised numpy's IndexError.
    vma = validate(load_model("erlang2.ma")[0])
    with pytest.raises(UnknownState):
        oracle.ctmc_hitting_time(vma, goal)
    with pytest.raises(UnknownState):
        oracle.ctmc_transient(vma, goal, 1.0)
    with pytest.raises(UnknownState):
        oracle.simulate(vma, {}, "et", goal, n_runs=2, seed=1)


@pytest.mark.parametrize("goal", [{-1}, {99}])
def test_policy_oracles_reject_goal_indices_out_of_range(two_mecs, goal):
    vma, _ = two_mecs
    policy = {vma.index_of("s1"): "alpha", vma.index_of("s3"): "beta"}
    with pytest.raises(UnknownState):
        oracle.enumerate_policies(vma, goal, "lra", "max")
    with pytest.raises(UnknownState):
        oracle.lra_fixed_policy(vma, goal, policy)


def test_oracle_values_are_python_floats(two_mecs):
    # An empty goal once gave one np.float64 among the Python floats.
    vma, goal = two_mecs
    for g in (frozenset(), goal):
        for objective in ("et", "lra"):
            values = oracle.enumerate_policies(vma, g, objective, "max")
            assert {type(x) for x in values} == {float}, (g, objective)
    ctmc = validate(load_model("erlang2.ma")[0])
    for values in (oracle.ctmc_hitting_time(ctmc, {2}), oracle.ctmc_transient(ctmc, {2}, 1.0)):
        assert {type(x) for x in values} == {float}


def test_ssp_reference_reads_a_goal_without_terminal_cost_as_zero():
    # expected_time starts the goal at 0.0; the LP once raised KeyError.
    vma = validate(mk("a", markov={"a": [("b", 1.0)]}))
    goal = {vma.index_of("b")}
    assert expected_time(vma, goal, "min").values == [1.0, 0.0]
    for mode in ("min", "max"):
        assert oracle.expected_time_lp(vma, goal, mode) == pytest.approx([1.0, 0.0])


def test_ssp_reference_has_no_optimum_when_the_goal_is_out_of_reach():
    # a loops in one jump of mean 1 and never reaches g: x_a <= 1 + x_a
    # bounds nothing, and x_a >= 1 + x_a has no solution.
    vma = validate(mk("a", markov={"a": [("a", 1.0)], "g": [("g", 1.0)]}))
    goal = {vma.index_of("g")}
    with pytest.raises(LpUnbounded):
        oracle.expected_time_lp(vma, goal, "min")
    with pytest.raises(LpInfeasible):
        oracle.expected_time_lp(vma, goal, "max")


# p and q take turns in zero time; m and g are absorbing Markovian states.
ZERO_TIME_LOOP = {"p": [("a", [("q", 1.0)])], "q": [("a", [("p", 1.0)])]}


def test_ratio_reference_is_unbounded_on_a_component_without_time():
    vma = validate(mk("m", prob=ZERO_TIME_LOOP, markov={"m": [("m", 1.0)]}))
    (mec,) = [mec for mec in mecs(vma) if not mec.states & vma.ms]
    with pytest.raises(LpUnbounded):
        oracle.ratio_lp(vma, mec, {vma.index_of("m")}, "min")


def test_simulation_stops_a_zero_time_loop(monkeypatch):
    monkeypatch.setattr(oracle, "_ZERO_TIME_STEP_CAP", 1000)
    vma = validate(mk("p", prob=ZERO_TIME_LOOP, markov={"g": [("g", 1.0)]}))
    policy = {vma.index_of("p"): "a", vma.index_of("q"): "a"}
    with pytest.raises(ZenoGuardTripped):
        oracle.simulate(vma, policy, "et", {vma.index_of("g")}, 1, 1)


def test_simulation_stops_at_the_jump_cap(monkeypatch):
    # a and b alternate forever; the goal g is never reached.
    monkeypatch.setattr(oracle, "_SIM_JUMP_CAP", 100)
    vma = validate(
        mk("a", markov={"a": [("b", 1.0)], "b": [("a", 1.0)], "g": [("g", 1.0)]})
    )
    with pytest.raises(MamaError, match="jump cap"):
        oracle.simulate(vma, {}, "et", {vma.index_of("g")}, 1, 1)


@pytest.mark.parametrize(
    "kind, goal, expected", [("et", "g", math.inf), ("tbr", "g", 0.0), ("lra", "d", 1.0)]
)
def test_simulation_ends_in_an_absorbing_state(kind, goal, expected):
    # s jumps to the absorbing d, which it never leaves; g is never reached.
    vma = validate(
        mk("s", markov={"s": [("d", 1.0)], "d": [("d", 1.0)], "g": [("g", 1.0)]})
    )
    res = oracle.simulate(vma, {}, kind, {vma.index_of(goal)}, 2, 1, b=1.0)
    assert res.mean == pytest.approx(expected, abs=1e-2)
    if kind == "et":
        # One run that never reaches the goal makes the mean infinite for
        # certain; numpy's spread of two infinities was NaN, with a warning.
        assert (res.stderr, res.ci_low, res.ci_high) == (0.0, math.inf, math.inf)


def test_hitting_time_reference_reports_a_singular_system():
    # s reaches g with a probability that underflows to 0, so the linear
    # system sees s and t as a closed loop although g is in their support.
    vma = validate(
        mk("s", markov={"s": [("t", 1e300), ("g", 1e-300)], "t": [("s", 1.0)]})
    )
    with pytest.raises(SingularSystem):
        oracle.ctmc_hitting_time(vma, {vma.index_of("g")})


def test_simplex_pivots_a_leftover_artificial_onto_a_real_column():
    # Phase one ends with the second row's artificial basic at zero; the
    # row's -1 on x2 takes its place and x2 leaves the first row.
    a = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    x = oracle._simplex_standard(np.ones(3), a, np.ones(2))
    assert x.tolist() == [1.0, 0.0, 0.0]


def test_simplex_drops_a_redundant_row():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    x = oracle._simplex_standard(np.array([1.0, 2.0]), a, np.ones(2))
    assert x.tolist() == [1.0, 0.0]


def _ring(n):
    """s0 -> s1 -> ... -> s<n-1> -> s0, one jump each: one end component."""
    vma = validate(mk("s0", markov={f"s{i}": [(f"s{(i + 1) % n}", 1.0)] for i in range(n)}))
    return vma, mecs(vma)[0]


def _markov_chain(n):
    """s0 -> s1 -> ... -> s<n>, one jump each; the goal is the last state."""
    vma = validate(mk("s0", markov={f"s{i}": [(f"s{i + 1}", 1.0)] for i in range(n)}))
    return vma, {vma.index_of(f"s{n}")}


BAD_ORACLE_CALLS = {
    "objective": (ValueError, lambda vma, g: oracle.enumerate_policies(vma, g, "tbr", "min")),
    "mode": (ValueError, lambda vma, g: oracle.enumerate_policies(vma, g, "et", "avg")),
    "lp mode": (ValueError, lambda vma, g: oracle.expected_time_lp(vma, g, "avg")),
    "ratio cap": (ValueError, lambda vma, g: oracle.ratio_lp(*_ring(200), set(), "min")),
    "ssp cap": (ValueError, lambda vma, g: oracle.expected_time_lp(*_markov_chain(201), "min")),
    "missing choice": (ValueError, lambda vma, g: oracle.lra_fixed_policy(vma, g, {})),
    "disabled choice": (
        ValueError,
        lambda vma, g: oracle.lra_fixed_policy(vma, g, {s: "gamma" for s in vma.ps}),
    ),
    "stationary": (NotErgodic, lambda vma, g: oracle.embedded_stationary(vma)),
    "transient": (ValueError, lambda vma, g: oracle.ctmc_transient(vma, g, 1.0)),
    "sim kind": (ValueError, lambda vma, g: oracle.simulate(vma, {}, "avg", g, 1, 1)),
    "sim bound": (ValueError, lambda vma, g: oracle.simulate(vma, {}, "tbr", g, 1, 1)),
}


@pytest.mark.parametrize("case", sorted(BAD_ORACLE_CALLS))
def test_oracle_rejects_bad_input(two_mecs, case):
    error, call = BAD_ORACLE_CALLS[case]
    vma, goal = two_mecs
    with pytest.raises(error):
        call(vma, goal)


def test_transient_reference_checks_its_bound():
    vma = validate(load_model("erlang2.ma")[0])
    with pytest.raises(ValueError, match=">= 0"):
        oracle.ctmc_transient(vma, {2}, -1.0)
    with pytest.raises(ValueError, match="too large"):
        oracle.ctmc_transient(vma, {2}, 1e6)
    # With every state a goal no rate is left to uniformise by.
    assert oracle.ctmc_transient(vma, set(range(vma.n)), 1.0) == [1.0] * vma.n
