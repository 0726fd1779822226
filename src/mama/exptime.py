"""Minimal and maximal expected time to reach a goal set.

The analysis reduces to a non-negative stochastic shortest path problem:
a Markovian state pays its expected sojourn time 1/E(s) per visit and
moves along the embedded jump distribution, a probabilistic state pays
nothing and chooses among its actions, and goal states terminate at
cost zero.  Expected time depends on the model only up to the first goal
visit, so every pass reads the validated model with the goal states'
rows masked, as if they were absorbing.  The SSP instance is the
model's kernel (`ValidatedMA.kernel`) itself with a cost per row, built
once per goal set and shared by both modes.  States that cannot almost
surely reach the goal under the relevant quantifier have infinite
expected time.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import graph
from .mdpsolve import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    SolveResult,
    SspInstance,
    collapse_end_components,
    solve_ssp,
)
from .model import ValidatedMA, _once, check_goal, check_mode
# The benchmark's tracer (perfbench/spans.py) wraps this name; no query calls it.
from .model import make_absorbing  # noqa: F401


def build_ssp_et(vma: ValidatedMA, goal: Iterable[int]) -> SspInstance:
    """Shortest-path instance whose minimal cost is the expected time.

    Its kernel is the model's (`ValidatedMA.kernel`), whose goal rows the
    instance masks: goal states terminate at cost zero, a Markovian
    non-goal state keeps its one row, the branching kernel, at cost
    1/E(s), and a probabilistic one its actions at cost zero.  A goal index outside the
    model raises `UnknownState`.
    """
    goal = check_goal(vma, goal)
    markov = list(vma.ms)
    sojourn = np.zeros(vma.n)
    with np.errstate(over="ignore"):  # an underflowed rate's sojourn is inf
        sojourn[markov] = 1.0 / np.array(vma.exit_rate)[markov]
    terminal = tuple((g, 0.0) for g in sorted(goal))
    return SspInstance(vma.states, goal, terminal, vma.kernel, sojourn[vma.kernel.row_state])


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
    probabilistic states.  Both modes solve the one instance of
    `build_ssp_et`, built once per goal set and stored on the model.  A
    goal index outside the model raises `UnknownState`, and a mode other
    than "min" and "max" a ValueError before any other check.
    """
    check_mode(mode)
    graph.require_non_zeno(vma)
    goal = check_goal(vma, goal)
    ssp = _once(vma, ("ssp", goal), lambda v: build_ssp_et(v, goal))
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
    # Each such component is a cycle of zero-time moves, so it lies among
    # the states the zero-time peel leaves stuck, and only those are
    # refined.  Components already marked infinite are left alone (their
    # members cannot escape).
    stuck = np.flatnonzero(graph.zero_time_stuck(vma, vma.ps - goal)).tolist()
    components = [
        (comp, kept)
        for comp, kept in (graph._refine_end_components(vma, stuck) if stuck else ())
        if comp[0] not in infinite
    ]
    quotient = collapse_end_components(ssp, components)
    held = frozenset(quotient.state_map[s] for s in infinite)
    res = solve_ssp(quotient.ssp, mode, tol=tol, max_iters=max_iters, infinite=held)
    policy = quotient.choices(res, sorted(vma.ps))
    # Every component left has finite members, so its gate has an exit
    # row and a choice, played by its member and steered to by the others.
    for j in range(len(components)):
        policy.update(quotient.exit(vma, res, j)[1])
    return SolveResult(quotient.values(res), policy, res.iterations, res.residual)
