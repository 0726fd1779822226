import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mama import (
    TimedQuery,
    choose_delta,
    discretise,
    make_absorbing,
    oracle,
    step_bounded_reach,
    timed_reachability,
    validate,
)
from mama.errors import StepOverflow, UnknownState, ZenoModelError, ZenoSubgraph
from mama.timedreach import (
    TAIL_SHARE,
    _brackets,
    _interval_grid,
    _roundoff_allowance,
    poisson_weights,
)

from conftest import MODELS, load_model, mk, random_ctmc, random_ma


def erlang(n, rate=1.0):
    markov = {f"s{i}": [(f"s{i+1}" if i + 1 < n else "g", rate)] for i in range(n)}
    vma = validate(mk("s0", markov=markov))
    return vma, frozenset({vma.index_of("g")})


def birth_death(n, up=1.5, down=1.0):
    markov = {}
    for i in range(n):
        edges = []
        if i + 1 < n:
            edges.append((f"s{i+1}", up))
        if i > 0:
            edges.append((f"s{i-1}", down))
        markov[f"s{i}"] = edges
    vma = validate(mk("s0", markov=markov, states=[f"s{i}" for i in range(n)]))
    return vma, frozenset({vma.index_of(f"s{n-1}")})


def test_choose_delta_examples():
    delta, k = choose_delta(1.0, 1.0, 0.005)
    assert k == 100 and delta == pytest.approx(0.01)
    delta, k = choose_delta(2.0, 1.0, 0.5)
    assert k == 4 and delta == pytest.approx(0.25)
    # accuracy looser than the bound itself: a single step suffices
    _, k = choose_delta(1.0, 1.0, 0.9)
    assert k == 1


def test_choose_delta_guarantee():
    for lam, b, eps in [(1.0, 1.0, 0.005), (2.0, 3.0, 1e-3), (0.5, 10.0, 1e-2)]:
        delta, k = choose_delta(lam, b, eps)
        term = 1.0 - math.exp(-lam * b) * (1.0 + lam * delta) ** k
        assert term <= lam * lam * b * b / (2 * k) <= eps


def test_choose_delta_overflow():
    with pytest.raises(StepOverflow) as excinfo:
        choose_delta(1000.0, 1000.0, 1e-9)
    # The exact count stays on the exception; the message rounds it.
    exact = math.ceil(Fraction(1000) ** 4 / (2 * Fraction(1e-9)))
    assert excinfo.value.steps == exact
    assert "needs 5.0e+20 steps, more than the 2^40 cap" in str(excinfo.value)


@pytest.mark.parametrize(
    "lam,b,eps",
    [
        (math.inf, 1.0, 0.1),
        (1.0, math.inf, 0.1),
        (math.nan, 1.0, 0.1),
        (1.0, math.nan, 0.1),
        (1.0, 1.0, math.nan),
    ],
    ids=["infinite-rate", "infinite-horizon", "nan-rate", "nan-horizon", "nan-eps"],
)
def test_choose_delta_rejects_non_finite_arguments(lam, b, eps):
    # An infinite rate or horizon used to overflow the exact step count.
    with pytest.raises(ValueError, match="need finite lambda_max > 0, finite b > 0"):
        choose_delta(lam, b, eps)


@pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -0.1])
def test_discretise_rejects_a_non_finite_or_non_positive_step(delta):
    # A NaN step width used to build a step kernel with every entry dropped.
    vma = validate(mk("s", markov={"s": [("g", 2.0)]}))
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        discretise(vma, delta)


def test_discretise_rows():
    vma = validate(mk("s", markov={"s": [("g", 2.0)]}))
    dma = discretise(vma, 0.1)
    s, g = vma.index_of("s"), vma.index_of("g")
    row = dict(dma.mu[s])
    assert row[g] == pytest.approx(1.0 - math.exp(-0.2))
    assert row[s] == pytest.approx(math.exp(-0.2))
    assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)


def test_discretise_large_step_approaches_branching():
    vma = validate(mk("s", markov={"s": [("a", 1.0), ("b", 1.0)]}))
    dma = discretise(vma, 1000.0)
    row = dict(dma.mu[vma.index_of("s")])
    assert row[vma.index_of("a")] == pytest.approx(0.5, abs=1e-9)
    assert row[vma.index_of("b")] == pytest.approx(0.5, abs=1e-9)


def test_discretise_self_loop_mass():
    vma = validate(mk("s", markov={"s": [("s", 1.0), ("g", 1.0)]}))
    dma = discretise(vma, 0.1)
    row = dict(dma.mu[vma.index_of("s")])
    stay = math.exp(-0.2)
    assert row[vma.index_of("s")] == pytest.approx(0.5 * (1 - stay) + stay)
    assert row[vma.index_of("s")] >= stay


def test_step_bounded_geometric_closed_form():
    vma, goal = erlang(1)
    delta, lam, k = 0.1, 1.0, 10
    dma = discretise(make_absorbing(vma, goal), delta)
    v = step_bounded_reach(dma, goal, k, "max")
    assert v[0] == pytest.approx(1.0 - math.exp(-lam * delta * k), rel=1e-12)
    assert v[0] == pytest.approx(0.6321206, abs=1e-7)


def test_step_bounded_zero_steps_is_zero_time_reach():
    vma = validate(
        mk(
            "p",
            prob={"p": [("a", [("g", 0.3), ("m", 0.7)])]},
            markov={"m": [("g", 1.0)]},
        )
    )
    goal = frozenset({vma.index_of("g")})
    dma = discretise(make_absorbing(vma, goal), 0.1)
    v = step_bounded_reach(dma, goal, 0, "max")
    assert v[vma.index_of("g")] == 1.0
    assert v[vma.index_of("m")] == 0.0
    assert v[vma.index_of("p")] == pytest.approx(0.3)


def test_step_bounded_monotone_in_k():
    vma, goal = birth_death(5)
    dma = discretise(make_absorbing(vma, goal), 0.05)
    prev = step_bounded_reach(dma, goal, 0, "max")
    for k in (1, 2, 5, 10, 25):
        cur = step_bounded_reach(dma, goal, k, "max")
        assert all(a <= b + 1e-15 for a, b in zip(prev, cur))
        prev = cur


def test_mode_choice_prefers_fast_branch():
    vma = validate(
        mk(
            "p",
            prob={"p": [("a", [("m1", 1.0)]), ("b", [("m2", 1.0)])]},
            markov={"m1": [("g", 10.0)], "m2": [("g", 0.1)]},
        )
    )
    goal = frozenset({vma.index_of("g")})
    hi = timed_reachability(vma, TimedQuery(goal=goal, b=0.5, eps=1e-3, mode="max"))
    lo = timed_reachability(vma, TimedQuery(goal=goal, b=0.5, eps=1e-3, mode="min"))
    p = vma.index_of("p")
    assert hi.lower[p] > lo.upper[p]
    fast = 1 - math.exp(-10 * 0.5)
    slow = 1 - math.exp(-0.1 * 0.5)
    assert hi.lower[p] <= fast <= hi.upper[p]
    assert lo.lower[p] <= slow <= lo.upper[p]


def test_zero_zero_interval():
    vma = validate(
        mk("p", prob={"p": [("a", [("g", 0.25), ("m", 0.75)])]},
           markov={"m": [("g", 1.0)]})
    )
    goal = frozenset({vma.index_of("g")})
    res = timed_reachability(vma, TimedQuery(goal=goal, b=0.0, eps=1e-3, mode="max"))
    assert res.lower[vma.index_of("g")] == res.upper[vma.index_of("g")] == 1.0
    assert res.lower[vma.index_of("p")] == pytest.approx(0.25)
    assert res.lower[vma.index_of("m")] == 0.0


def test_sandwich_on_analytic_families():
    # Without choices the two uniformisation bounds are one truncated
    # uniformisation sum, so every pure chain is answered by uniformisation.
    cases = [erlang(n) for n in (1, 2, 5)] + [birth_death(6), birth_death(10)]
    for name in ("erlang2.ma", "erlang5.ma", "single_exp.ma"):
        ma, goal = load_model(name)
        cases.append((validate(ma), goal))
    for vma, goal in cases:
        for b, eps in itertools.product((0.5, 1.0, 4.0), (1e-2, 1e-3)):
            k, attempt = uniformisation_steps(vma, b, eps)
            want = oracle.ctmc_transient(vma, goal, b)
            for mode in ("min", "max"):
                res = timed_reachability(
                    vma, TimedQuery(goal=goal, b=b, eps=eps, mode=mode)
                )
                assert res.steps == attempt < k
                for s in range(vma.n):
                    assert res.lower[s] <= want[s] <= res.upper[s], (b, eps, s)
                    assert res.upper[s] - res.lower[s] <= eps


def test_bracket_narrows_with_accuracy():
    vma, goal = erlang(2)
    prev = None
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        res = timed_reachability(vma, TimedQuery(goal=goal, b=1.0, eps=eps, mode="max"))
        if prev is not None:
            assert res.lower[0] >= prev.lower[0] - 1e-12
            assert res.upper[0] <= prev.upper[0] + 1e-12
        prev = res


def test_error_halves_when_steps_double():
    lam, b = 1.0, 2.0
    _, k = choose_delta(lam, b, 1e-2)
    for _ in range(3):
        first = lam * lam * b * b / (2 * k)
        second = lam * lam * b * b / (2 * (2 * k))
        assert second <= first / 2 + 1e-15
        k *= 2


def test_min_bracket_below_max_bracket():
    rng = random.Random(131)
    done = 0
    while done < 8:
        vma, goal = random_ma(rng, max_states=5)
        if vma.lambda_max <= 0:
            continue
        q = dict(goal=goal, b=1.0, eps=1e-2)
        lo = timed_reachability(vma, TimedQuery(mode="min", **q))
        hi = timed_reachability(vma, TimedQuery(mode="max", **q))
        for s in range(vma.n):
            assert lo.lower[s] <= hi.lower[s] + 1e-12
            assert lo.upper[s] <= hi.upper[s] + 1e-12
        done += 1


def test_modes_coincide_without_nondeterminism():
    # a pure chain has no choices, so the min and max brackets agree
    vma, goal = birth_death(4)
    q = dict(goal=goal, b=1.0, eps=1e-3)
    lo = timed_reachability(vma, TimedQuery(mode="min", **q))
    hi = timed_reachability(vma, TimedQuery(mode="max", **q))
    assert lo.lower == hi.lower
    assert lo.upper == hi.upper


def test_interval_single_exponential():
    vma, goal = erlang(1)
    for a, b in ((1.0, 4.0), (0.5, 1.0)):
        res = timed_reachability(
            vma, TimedQuery(goal=goal, a=a, b=b, eps=1e-3, mode="max")
        )
        want = math.exp(-a) - math.exp(-b)
        assert res.lower[0] <= want <= res.upper[0]
        assert res.upper[0] - res.lower[0] <= 1e-3


def test_interval_erlang_first_passage():
    for n in (2, 5):
        vma, goal = erlang(n)
        for a, b in ((0.5, 2.0), (1.0, 3.0)):
            res = timed_reachability(
                vma, TimedQuery(goal=goal, a=a, b=b, eps=1e-3, mode="max")
            )
            want = (
                oracle.ctmc_transient(vma, goal, b)[0]
                - oracle.ctmc_transient(vma, goal, a)[0]
            )
            assert res.lower[0] <= want <= res.upper[0]
            assert res.upper[0] - res.lower[0] <= 1e-3


def test_interval_birth_death_first_passage():
    vma, goal = birth_death(6)
    res = timed_reachability(
        vma, TimedQuery(goal=goal, a=1.0, b=2.5, eps=1e-3, mode="max")
    )
    want = (
        oracle.ctmc_transient(vma, goal, 2.5)[0]
        - oracle.ctmc_transient(vma, goal, 1.0)[0]
    )
    assert res.lower[0] <= want <= res.upper[0]


def test_each_phase_grid_divides_its_own_horizon():
    vma, goal = erlang(1)
    for a, b in ((0.75, 2.0), (0.1, 0.3), (0.2, 1.0)):
        res = timed_reachability(
            vma, TimedQuery(goal=goal, a=a, b=b, eps=1e-2, mode="max")
        )
        assert res.steps * res.delta_used == pytest.approx(b - a, rel=1e-12)
        assert res.steps_a * res.delta_a == pytest.approx(a, rel=1e-12)


DECIMAL_INTERVALS = [(0.1, 0.3), (0.2, 1.0), (1.0, 3.3), (0.3, 0.3)]


def decimal_cases():
    ma, goal = load_model("single_exp.ma")
    return [erlang(2), birth_death(6), (validate(ma), goal)]


@pytest.mark.parametrize("a, b", DECIMAL_INTERVALS)
def test_decimal_intervals_answer_and_bracket_the_first_passage(a, b):
    # Neither endpoint is a binary fraction, so no step width divides both
    # a and b - a exactly; each phase takes a grid of its own.
    eps = 1e-2
    for vma, goal in decimal_cases():
        want = np.array(oracle.ctmc_transient(vma, goal, b)) - np.array(
            oracle.ctmc_transient(vma, goal, a)
        )
        res = timed_reachability(vma, TimedQuery(goal=goal, a=a, b=b, eps=eps, mode="both"))
        slack = 2.0 * _roundoff_allowance(res.steps + res.steps_a)
        assert res.error_term <= eps + slack
        for mode in ("min", "max"):
            lo, hi = map(np.array, res.brackets[mode])
            assert (hi - lo).max() <= eps + slack, (mode, (hi - lo).max())
            # The oracle truncates its own sum at 1e-12.
            assert (lo - 1e-12 <= want).all() and (want <= hi + 1e-12).all(), mode


def test_phase_grids_take_no_more_steps_than_a_common_grid():
    # The common grid: the gcd g of a and b - a, cut into
    # m = ceil(g * x) steps, x = lambda^2 (b - a + 2a) / (2 eps).
    for lam, a, b, eps in itertools.product(
        (0.5, 3.0), (0.25, 0.5, 0.75), (1.0, 1.5, 2.0), (0.05, 1e-2)
    ):
        fa, fr = Fraction(a), Fraction(b) - Fraction(a)
        g = Fraction(math.gcd(fa.numerator * fr.denominator, fr.numerator * fa.denominator),
                     fa.denominator * fr.denominator)
        x = Fraction(lam) ** 2 * (fr + 2 * fa) / (2 * Fraction(eps))
        m = max(1, math.ceil(g * x))
        (_, k_r), (_, k_a) = _interval_grid(lam, a, b, eps)
        assert k_r <= fr / g * m and k_a <= fa / g * m


def test_bracket_assembly_matches_the_scalar_form():
    rng = random.Random(5)
    x = np.array([rng.random() for _ in range(200)] + [0.0, -0.0, 1.0, 1e-13, 1.0 - 1e-13])
    err_r, err_a, fuzz = 3e-3, 1e-3, 4e-12
    low, high = _brackets(x, x, (err_a, fuzz), (err_r, err_a, fuzz))
    assert low.tolist() == [min(max(v - err_a - fuzz, 0.0), 1.0) for v in x.tolist()]
    assert high.tolist() == [min(v + err_r + err_a + fuzz, 1.0) for v in x.tolist()]


def test_bounds_certified_on_random_ctmcs():
    rng = random.Random(137)
    for _ in range(10):
        vma, goal = random_ctmc(rng, max_states=8, rate_hi=3.0)
        res = timed_reachability(
            vma, TimedQuery(goal=goal, b=1.0, eps=1e-2, mode="max")
        )
        want = oracle.ctmc_transient(vma, goal, 1.0)
        for s in range(vma.n):
            assert res.lower[s] - 1e-12 <= want[s] <= res.upper[s] + 1e-12


# ---------------------------------------------------------------------------
# [0, b] by uniformisation


def uniformisation_steps(vma, b, eps):
    """The discretisation's k and the 2K + 1 rounds of a uniformisation
    attempt for [0, b] at accuracy eps."""
    _, k = choose_delta(vma.lambda_max, b, eps)
    psi, _ = poisson_weights(vma.lambda_max * b, eps * TAIL_SHARE)
    return k, 2 * len(psi) - 1


def check_bracket_rules(vma, goal, b, eps):
    """Run [0, b] in both modes and check it against the rules every route
    keeps; returns True when uniformisation answered.

    The step count is 2K + 1 when uniformisation answers and k, plus 2K + 1
    when an attempt ran, otherwise.  Every bracket lies in [0, 1] and is at
    most eps wide, and the min brackets lie below the max brackets, as the
    benchmark's check asks (with its allowance for the discretisation's
    roundoff).  A uniformisation bracket must overlap the discretisation's
    bracket at the same accuracy.
    """
    res = timed_reachability(vma, TimedQuery(goal=goal, b=b, eps=eps, mode="both"))
    k, attempt = uniformisation_steps(vma, b, eps)
    uniformised = res.steps < k
    if uniformised:
        assert res.steps == attempt and res.delta_used == 0.0
    else:
        assert res.steps == k + (attempt if attempt < k else 0)
    assert res.steps <= k + attempt
    allowance = 2.0 * max(4e-12, 8.0 * k * 2.220446049250313e-16)
    width = eps if uniformised else eps + allowance
    lo = {m: np.array(res.brackets[m][0]) for m in ("min", "max")}
    hi = {m: np.array(res.brackets[m][1]) for m in ("min", "max")}
    for m in ("min", "max"):
        assert (0.0 <= lo[m]).all() and (lo[m] <= hi[m]).all() and (hi[m] <= 1.0).all()
        assert (hi[m] - lo[m]).max() <= width, (m, (hi[m] - lo[m]).max())
        assert (lo[m][sorted(goal)] > 1.0 - 1e-9).all()
    assert (lo["min"] <= lo["max"] + allowance).all()
    assert (hi["min"] <= hi["max"] + allowance).all()
    if uniformised:
        delta, _ = choose_delta(vma.lambda_max, b, eps)
        dma = discretise(make_absorbing(vma, goal), delta)
        values = np.array(step_bounded_reach(dma, goal, k, "both")).reshape(2, vma.n)
        error = vma.lambda_max**2 * b * b / (2 * k)
        for m, v in zip(("min", "max"), values):
            assert (lo[m] <= v + error + 1e-9).all(), m
            assert (v - 1e-9 <= hi[m]).all(), m
    return uniformised


def test_poisson_weights_are_normalised_and_cut_at_the_first_small_tail():
    for mean in (1e-3, 8.5, 2176.0, 1e4):
        for tail in (0.05 * TAIL_SHARE, 1e-6):
            psi, rest = poisson_weights(mean, tail)
            assert np.isfinite(psi).all() and (psi >= 0.0).all()
            assert 0.0 <= rest <= tail
            assert abs(math.fsum(psi) + rest - 1.0) <= 1e-12
            # K is the smallest count whose tail is small enough.
            assert len(psi) == 1 or psi[-1] + rest > tail
            # Against the closed form near the mean, in logarithms so that
            # nothing underflows.
            for n in {min(len(psi) - 1, math.floor(mean) + d) for d in (-3, 0, 3)}:
                if n < 0:
                    continue
                exact = -mean + n * math.log(mean) - math.lgamma(n + 1)
                assert math.log(psi[n]) == pytest.approx(exact, abs=1e-9)


def test_poisson_weights_without_jumps():
    psi, rest = poisson_weights(0.0, 1e-3)
    assert psi.tolist() == [1.0] and rest == 0.0
    with pytest.raises(ValueError):
        poisson_weights(math.inf, 1e-3)
    with pytest.raises(ValueError):
        poisson_weights(1.0, 0.0)


@pytest.mark.parametrize("eps", [0.05, 1e-2, 1e-3])
def test_uniformisation_brackets_on_random_models(eps):
    rng = random.Random(11)
    answered = uniformised = 0
    for _ in range(150):
        vma, goal = random_ma(rng, max_states=10, max_actions=3)
        try:
            timed_reachability(vma, TimedQuery(goal=goal, b=0.0))
        except ZenoSubgraph:
            continue  # an unlevelled zero-time cycle; refused in every mode
        if vma.lambda_max == 0.0:
            continue
        uniformised += check_bracket_rules(vma, goal, 0.25, eps)
        answered += 1
    assert answered >= 100
    assert 0 < uniformised < answered  # both routes are exercised


@pytest.mark.parametrize("eps", [0.05, 1e-2, 1e-3])
def test_uniformisation_brackets_on_bundled_models(eps):
    checked = 0
    for path in sorted(MODELS.glob("*.ma")):
        ma, goal = load_model(path.name)
        vma = validate(ma)
        try:
            timed_reachability(vma, TimedQuery(goal=goal, b=0.0))
        except ZenoModelError:
            continue  # the Zeno example is refused before any loop runs
        for b in (0.5, 1.0, 4.0):
            check_bracket_rules(vma, goal, b, eps)
        checked += 1
    assert checked >= 5


def test_a_wide_gap_falls_back_to_the_discretisation():
    # A risky fast branch against a sure two-jump one.  Knowing the number
    # of jumps N picks the risky branch for N = 1 and the sure one for
    # N >= 2; counting the jumps so far cannot, so at Lambda b = 2 the max
    # bounds stay about 0.16 apart and the discretisation answers.
    vma = validate(
        mk(
            "p",
            prob={"p": [("risky", [("r", 1.0)]), ("sure", [("c1", 1.0)])]},
            markov={
                "r": [("g", 6.0), ("x", 4.0)],
                "c1": [("c2", 10.0)],
                "c2": [("g", 10.0)],
                "x": [("x", 1.0)],
            },
        )
    )
    goal = frozenset({vma.index_of("g")})
    k, attempt = uniformisation_steps(vma, 0.2, 1e-2)
    assert attempt < k
    assert not check_bracket_rules(vma, goal, 0.2, 1e-2)
    for mode in ("min", "max"):
        res = timed_reachability(vma, TimedQuery(goal=goal, b=0.2, eps=1e-2, mode=mode))
        assert res.steps == k + attempt
        assert res.delta_used == choose_delta(vma.lambda_max, 0.2, 1e-2)[0]


def test_step_bounded_reach_rejects_a_negative_step_count():
    vma = validate(mk("s", markov={"s": [("g", 1.0)]}))
    with pytest.raises(ValueError, match="step count must be >= 0"):
        step_bounded_reach(discretise(vma, 0.1), {vma.index_of("g")}, -1)


@pytest.mark.parametrize("bad", [-1, 99])
def test_step_bounded_reach_rejects_a_goal_outside_the_model(two_mecs, bad):
    # Read as an index, -1 would wrap to the last state and 99 fall off the end.
    vma, _ = two_mecs
    with pytest.raises(UnknownState) as info:
        step_bounded_reach(discretise(vma, 0.1), {bad}, 2)
    assert info.value.state == bad
