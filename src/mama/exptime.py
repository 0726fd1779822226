"""Minimal and maximal expected time to reach a goal set.

The analysis reduces to a non-negative stochastic shortest path problem:
a Markovian state pays its expected sojourn time 1/E(s) per visit and
moves along the embedded jump distribution, a probabilistic state pays
nothing and chooses among its actions, and goal states terminate at
cost zero.  Expected time depends on the model only up to the first goal
visit, so every pass reads the validated model with the goal states'
rows masked, as if they were absorbing.  States that cannot almost
surely reach the goal under the relevant quantifier have infinite
expected time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from . import graph
from .mdpsolve import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    SolveResult,
    SspAction,
    SspInstance,
    collapse_end_components,
    solve_ssp,
)
from .model import BOT, ValidatedMA, check_goal
# The benchmark's tracer (perfbench/spans.py) wraps this name; no query calls it.
from .model import make_absorbing  # noqa: F401


@dataclass(frozen=True)
class ExpectedTimeQuery:
    goal: frozenset[int]
    mode: str = "min"
    tol: float = DEFAULT_TOL


def build_ssp_et(vma: ValidatedMA, goal: Iterable[int]) -> SspInstance:
    """Shortest-path instance whose minimal cost is the expected time.

    Goal states get no actions, whatever their rows, and terminate at
    cost zero.  Markovian non-goal states get the single pseudo-action
    with cost 1/E(s) and the branching kernel; probabilistic non-goal
    states keep their actions at cost zero.
    """
    goal = frozenset(goal)
    actions: list[tuple[SspAction, ...]] = []
    for s in range(vma.n):
        if s in goal:
            actions.append(())
        elif s in vma.ms:
            actions.append(
                (SspAction(BOT, 1.0 / vma.exit_rate[s], vma.branch[s]),)
            )
        else:
            actions.append(
                tuple(
                    SspAction(label, 0.0, dist)
                    for label, dist in vma.ma.prob_transitions[s]
                )
            )
    return SspInstance(
        names=vma.states,
        actions=tuple(actions),
        goal=goal,
        terminal=tuple((g, 0.0) for g in sorted(goal)),
        initial=vma.initial,
    )


def expected_time(
    vma: ValidatedMA,
    goal: Iterable[int],
    mode: str = "min",
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveResult:
    """Optimal expected time to the goal set, with a witness policy.

    mode="min" infimum over policies, mode="max" supremum.  Entries are
    `inf` for states that fail the qualitative pre-pass: for the minimum no
    policy reaches the goal almost surely, for the maximum some policy
    avoids it with positive probability.  The returned policy covers the
    probabilistic states.  A goal index outside the model raises
    `UnknownState`.
    """
    graph.require_non_zeno(vma)
    goal = check_goal(vma, goal)
    ssp = build_ssp_et(vma, goal)
    quantifier = "max" if mode == "min" else "min"
    finite = graph.almost_sure_reach(vma, goal, quantifier)
    infinite = frozenset(range(vma.n)) - finite

    if mode == "max":
        result = solve_ssp(ssp, mode, tol=tol, max_iters=max_iters, infinite=infinite)
        result.policy = {
            s: label for s, label in result.policy.items() if s in vma.ps
        }
        return result

    # Minimization must not stall on zero-cost cycles: collapse the
    # probabilistic-only end components (unreachable in non-Zeno models,
    # but their states still carry well-defined values).  Every member
    # shares one value, and only the actions leaving the component matter.
    # Components already marked infinite are left alone (their members
    # cannot escape).
    components = [
        (comp, kept)
        for comp, kept in graph._refine_end_components(vma, vma.ps - goal)
        if comp[0] not in infinite
    ]
    quotient = collapse_end_components(ssp.names, ssp.actions, components)
    state_map = quotient.state_map
    reduced = SspInstance(
        names=quotient.names,
        actions=quotient.actions,
        goal=frozenset(state_map[g] for g in ssp.goal),
        terminal=tuple((state_map[g], value) for g, value in ssp.terminal),
        initial=state_map[vma.initial],
    )
    res = solve_ssp(
        reduced,
        mode,
        tol=tol,
        max_iters=max_iters,
        infinite=frozenset(state_map[s] for s in infinite),
    )
    values = [res.values[state_map[s]] for s in range(vma.n)]
    members = {s for comp, _ in components for s in comp}
    policy: dict[int, str] = {}
    for s in vma.ps - goal - members:
        chosen = res.policy.get(state_map[s])
        if chosen is not None and not math.isinf(values[s]):
            policy[s] = chosen
    # At a collapsed component the member owning the chosen exit plays
    # it, and the other members steer to that member.
    for j, (comp, kept) in enumerate(components):
        chosen = res.policy.get(quotient.gates[j])
        if chosen is None or math.isinf(values[comp[0]]):
            continue
        member, label = quotient.exits[(j, chosen)]
        policy.update(graph.reach_policy(vma, kept, member))
        policy[member] = label
    return SolveResult(
        values=values, policy=policy, iterations=res.iterations, residual=res.residual
    )


def run_query(vma: ValidatedMA, query: ExpectedTimeQuery) -> SolveResult:
    return expected_time(vma, query.goal, query.mode, query.tol)


def bellman_residual(
    vma: ValidatedMA, goal: Iterable[int], values: list[float], mode: str
) -> float:
    """Sup-norm distance of `values` from one Bellman application.

    Useful to certify a solution independently of the iteration that
    produced it; infinite entries must be reproduced exactly.
    """
    goal = frozenset(goal)
    worst = 0.0
    for s in range(vma.n):
        if s in goal:
            expect = 0.0
        else:
            candidates = []
            for _, dist in vma.enabled(s):
                total = 0.0
                for t, p in dist:
                    if math.isinf(values[t]):
                        total = math.inf
                        break
                    total += p * values[t]
                cost = 1.0 / vma.exit_rate[s] if s in vma.ms else 0.0
                candidates.append(cost + total)
            expect = min(candidates) if mode == "min" else max(candidates)
        if math.isinf(expect) and math.isinf(values[s]):
            continue
        if math.isinf(expect) != math.isinf(values[s]):
            return math.inf
        worst = max(worst, abs(expect - values[s]))
    return worst
