"""One loop serves both optimisation directions of a query.

With mode "both" the minimum and the negated maximum share one value
vector: in the step loop of a timed query, and in each relative value
iteration of a long-run query's end components.  Each direction must be
bit for bit what a query of its own gives.  The timed directions must
also agree with a per-state recursion that shares no code with the loop.
"""

from __future__ import annotations

import json
import random

import pytest

from mama import (
    TimedQuery,
    discretise,
    longrun,
    lra,
    make_absorbing,
    mecs,
    step_bounded_reach,
    timed_reachability,
    validate,
)
from mama.cli import run
from mama.errors import MamaError, NotConverged, ZenoSubgraph
from mama.timedreach import TAIL_SHARE, poisson_weights

from conftest import MODELS, benchmark_families, load_model, random_ma, step_rows
from test_mdpsolve import layered_ma, recursive_zero_time

INTERVALS = [(0.0, 1.0), (0.5, 1.5), (0.0, 0.0), (0.1, 0.3)]


def assert_both_equals_separate(vma, goal, a, b, eps):
    both = timed_reachability(vma, TimedQuery(goal=goal, a=a, b=b, eps=eps, mode="both"))
    for mode in ("min", "max"):
        alone = timed_reachability(vma, TimedQuery(goal=goal, a=a, b=b, eps=eps, mode=mode))
        assert both.brackets[mode] == (alone.lower, alone.upper), (mode, a, b)
        assert (both.steps, both.steps_a) == (alone.steps, alone.steps_a)
        assert both.delta_used == alone.delta_used
        assert both.error_term == alone.error_term
    assert list(both.brackets) == ["min", "max"]
    assert both.lower == both.brackets["min"][0]
    assert both.upper == both.brackets["max"][1]
    return both.brackets["min"] != both.brackets["max"]


def bundled():
    out = []
    for path in sorted(MODELS.glob("*.ma")):
        try:
            ma, goal = load_model(path.name)
            vma = validate(ma)
            timed_reachability(vma, TimedQuery(goal=goal, b=0.0))
        except MamaError:
            continue  # the Zeno example is refused before any loop runs
        out.append((path.name, vma, goal))
    return out


def test_bundled_models_have_cases():
    assert len(bundled()) >= 5


@pytest.mark.parametrize("a, b", INTERVALS)
def test_both_modes_equal_separate_queries_on_bundled_models(a, b):
    for _, vma, goal in bundled():
        assert_both_equals_separate(vma, goal, a, b, 1e-2)


def test_both_modes_equal_separate_queries_on_layered_models():
    # Four zero-time levels and up to three actions per probabilistic
    # state; the recursion checks the order of the levels and the sign of
    # the maximum's copy, which the loop itself cannot see.
    rng = random.Random(67)
    for _ in range(6):
        vma = layered_ma(rng)
        goal = frozenset(rng.sample(range(vma.n), 2))
        for a, b in INTERVALS:
            assert_both_equals_separate(vma, goal, a, b, 5e-2)

        absorbed = make_absorbing(vma, goal)
        dma = discretise(absorbed, 0.05)
        mu = step_rows(dma)
        refs = {
            mode: recursive_zero_time(
                absorbed, {s: 1.0 if s in goal else 0.0 for s in absorbed.ms}, mode
            )
            for mode in ("min", "max")
        }
        for k in range(6):
            got = step_bounded_reach(dma, goal, k, "both")
            assert got == step_bounded_reach(dma, goal, k, "min") + step_bounded_reach(
                dma, goal, k, "max"
            )
            for j, mode in enumerate(("min", "max")):
                for s in range(vma.n):
                    assert got[j * vma.n + s] == pytest.approx(refs[mode][s], abs=1e-12)
                fixed = {
                    s: 1.0 if s in goal else sum(p * refs[mode][t] for t, p in mu[s])
                    for s in absorbed.ms
                }
                refs[mode] = recursive_zero_time(absorbed, fixed, mode)
        assert refs["min"] != refs["max"]


def test_both_modes_equal_separate_queries_on_random_models():
    rng = random.Random(11)
    answered = apart = 0
    while answered < 100:
        vma, goal = random_ma(rng, max_states=10, max_actions=3)
        try:
            timed_reachability(vma, TimedQuery(goal=goal, b=0.0))
        except ZenoSubgraph:
            continue  # an unlevelled zero-time cycle; refused in every mode
        for a, b in ((0.0, 0.25), (0.125, 0.25), (0.1, 0.3), (0.0, 0.0)):
            apart += assert_both_equals_separate(vma, goal, a, b, 0.1)
        answered += 1
    assert apart >= 50  # the directions differ, so a swapped sign shows


@pytest.mark.parametrize("name, b, eps", [("many-mecs", 2.0, 0.05), ("random-ma", 1.0, 1e-2)])
def test_both_modes_equal_separate_queries_at_a_raised_rate(name, b, eps):
    # The attempt at lambda_max leaves these brackets wider than eps and one
    # at a raised rate answers; every mode must take that same route.
    ma, goal = {case: (ma, goal) for case, ma, goal in benchmark_families(1)}[name]
    vma = validate(ma)
    assert assert_both_equals_separate(vma, goal, 0.0, b, eps)
    res = timed_reachability(vma, TimedQuery(goal=goal, b=b, eps=eps, mode="both"))
    psi, _ = poisson_weights(vma.lambda_max * b, eps * TAIL_SHARE)
    assert res.delta_used == 0.0 and res.steps > 2 * len(psi) - 1


def lra_parts(res):
    """An `LraResult` as comparable parts, each float by its bits."""
    return (
        res.mode,
        [x.hex() for x in res.per_mec],
        [x.hex() for x in res.values],
        res.policy.decisions,
        res.policy.in_mec,
        res.policy.transient,
        res.iterations,
    )


def assert_lra_both_equals_separate(monkeypatch, vma, goal):
    solve, components = longrun.lra_unichain, []

    def counted(vma, mec, *args, **kwargs):
        components.append(mec)
        ratios, policies, total, sweeps = solve(vma, mec, *args, **kwargs)
        assert type(total) is int and total == sum(sweeps.values())
        return ratios, policies, total, sweeps

    with monkeypatch.context() as patch:
        patch.setattr(longrun, "lra_unichain", counted)
        both = lra(vma, goal, "both")
    assert components == mecs(vma)  # one lockstep call per component
    assert list(both) == ["min", "max"]
    for mode in ("min", "max"):
        assert lra_parts(both[mode]) == lra_parts(lra(vma, goal, mode)), mode
    return both["min"].per_mec != both["max"].per_mec


def test_lra_both_modes_equal_separate_queries_on_bundled_models(monkeypatch):
    for _, vma, goal in bundled():
        assert_lra_both_equals_separate(monkeypatch, vma, goal)


@pytest.mark.parametrize(
    "name, ma, goal", [pytest.param(*case, id=f"{case[0]}-1") for case in benchmark_families(1)]
)
def test_lra_both_modes_equal_separate_queries_on_benchmark_families(monkeypatch, name, ma, goal):
    # bd-chain's one component needs no bisection, so its modes agree.
    apart = assert_lra_both_equals_separate(monkeypatch, validate(ma), goal)
    assert apart == (name != "bd-chain")


def test_lra_both_modes_equal_separate_queries_on_random_models(monkeypatch):
    rng = random.Random(11)
    apart = 0
    for _ in range(150):
        vma, goal = random_ma(rng, max_states=10, max_actions=3)
        apart += assert_lra_both_equals_separate(monkeypatch, vma, goal)
    assert apart >= 15  # the component ratios differ, so a swapped sign shows


def test_lra_both_modes_fail_as_the_modes_in_turn():
    # The copies stop apart, so the lockstep may meet the maximum's sweep
    # budget before the minimum's; a "both" query still raises what a
    # "min" query and then a "max" query would.
    def outcome(vma, goal, mode, max_iters):
        try:
            lra(vma, goal, mode, max_iters=max_iters)
        except NotConverged as exc:
            return str(exc)
        return None

    rng = random.Random(5)
    failed = 0
    for _ in range(40):
        vma, goal = random_ma(rng, max_states=8, max_actions=3)
        for max_iters in (3, 8, 13, 30):
            alone = [outcome(vma, goal, mode, max_iters) for mode in ("min", "max")]
            want = next((error for error in alone if error), None)
            assert outcome(vma, goal, "both", max_iters) == want
            failed += alone[0] is not None and alone[1] is not None and alone[0] != alone[1]
    assert failed >= 5


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The timed queries keep their interval ids; a text run adds "-text".
QUERIES = {
    "interval0": ["--query", "tbr", "--to", "1", "--epsilon", "0.01"],
    "interval1": ["--query", "tbr", "--from", "0.5", "--to", "1.5", "--epsilon", "0.01"],
    "interval2": ["--query", "tbr", "--from", "0.1", "--to", "0.3", "--epsilon", "0.01"],
    "et": ["--query", "et", "--policy"],
    "lra": ["--query", "lra", "--policy"],
}
CASES = [
    pytest.param(query, output, id=key if output == "json" else f"{key}-text")
    for output in ("json", "text")
    for key, query in QUERIES.items()
]


def state_lines(out):
    """The per-state lines of a text output, split into name and value,
    and the policy lines after them."""
    lines = out.splitlines()
    cut = next((i for i, line in enumerate(lines) if line.startswith("POLICY ")), len(lines))
    return [line.split(" ", 1) for line in lines[:cut]], lines[cut:]


@pytest.mark.parametrize("query, output", CASES)
@pytest.mark.parametrize("name", ["two_mecs.ma", "queue.ma"])
def test_cli_both_is_the_assembly_of_single_modes(capsys, name, query, output):
    argv = ["run", str(MODELS / name), *query, "--output", output]
    single = {}
    for mode in ("min", "max"):
        code, out, err = invoke(capsys, *argv, "--mode", mode)
        assert (code, err) == (0, "")
        single[mode] = out
    code, out, err = invoke(capsys, *argv, "--mode", "both")
    assert (code, err) == (0, "")
    if output == "json":
        single = {mode: json.loads(text) for mode, text in single.items()}
        names = list(single["min"]["values"])
        expected = {
            "query": query[1],
            "mode": "both",
            "values": {
                s: [single["min"]["values"][s], single["max"]["values"][s]] for s in names
            },
        }
        for key in ("bounds", "policy"):
            if key in single["min"]:
                expected[key] = {mode: single[mode][key] for mode in ("min", "max")}
        assert ("policy" in expected) == ("--policy" in query)
        assert out == json.dumps(expected, indent=2) + "\n"
        return
    (lows, policy_min), (highs, policy_max) = (state_lines(single[m]) for m in ("min", "max"))
    assert bool(policy_min) == ("--policy" in query)
    lines = []
    for (state, low), (state_max, high) in zip(lows, highs):
        assert state == state_max
        if query[1] == "tbr":
            # The bracket under every scheduler: min's lower, max's upper.
            low, high = low[1:-1].split(", ")[0], high[1:-1].split(", ")[1]
        lines.append(f"{state} [{low}, {high}]")
    assert out == "\n".join(lines + policy_min + policy_max) + "\n"
