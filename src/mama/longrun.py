"""Long-run average fraction of time spent in a goal set.

The computation follows a three-step decomposition: find the maximal end
components, compute the optimal long-run ratio inside each component, and
combine the per-component optima through a stochastic-shortest-path
quotient in which every component collapses to a gate state (carrying the
transitions that leave it) and an absorbing sink whose terminal cost is
the component's value.

Inside a component the value is a ratio of two accumulated costs on the
embedded jump chain: time spent in goal states over total time, both per
step.  The optimal ratio is found by bisection on the crossing point of
the optimal average of (time-in-goal - k * total-time), each average
evaluated by relative value iteration with a damping transform that
guarantees convergence on periodic chains.  A bisection probe only needs
the sign of that average, and every sweep of the iteration brackets it
between the smallest and the largest change of the relative values
(Odoni, Oper. Res. 1969), so a probe stops as soon as its bracket lies
wholly on one side of zero; only the final policy pass at the crossing
ratio iterates until the bracket is `tol` wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import graph
from .errors import EmptyMec, NotConverged
from .graph import Mec
from .mdpsolve import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    Quotient,
    SspInstance,
    check_tolerance,
    collapse_end_components,
    solve_ssp,
)
from .model import Kernel, ValidatedMA, check_goal, check_mode

_DAMPING = 0.5
# One ulp of 1.0: ratios in [0, 1] cannot be bisected finer, and probes
# near the crossing ratio cannot decide their sign at that resolution.
MIN_RATIO_TOL = 2.0**-52


@dataclass(frozen=True)
class TwoCostAction:
    label: str
    c1: float
    c2: float
    dist: tuple[tuple[int, float], ...]  # local state indices


@dataclass(frozen=True)
class TwoCostMdp:
    """Jump-chain MDP with two step costs on a component's states.

    `c1` charges the expected sojourn time 1/E(s) of Markovian goal
    states, `c2` that of every Markovian state; probabilistic moves are
    instantaneous and cost nothing under both.  `origin[i]` is the state
    index of local state `i` in the full model.
    """

    names: tuple[str, ...]
    origin: tuple[int, ...]
    actions: tuple[tuple[TwoCostAction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.names)


@dataclass
class LraPolicy:
    """Witness policy: a commit/exit decision per component plus the
    stationary choices that realize it."""

    decisions: dict[int, str | tuple[int, str]]
    in_mec: dict[int, str]
    transient: dict[int, str]

    def flat(self) -> dict[int, str]:
        merged = dict(self.transient)
        merged.update(self.in_mec)
        return merged


@dataclass
class LraResult:
    mode: str
    per_mec: list[float]
    values: list[float]
    policy: LraPolicy
    mecs: list[Mec]
    iterations: int


def two_cost_mdp(vma: ValidatedMA, mec: Mec, goal: Iterable[int]) -> TwoCostMdp:
    """Restrict the model to a component and attach the two step costs.

    Raises `EmptyMec` for a component without states and `UnknownState`
    for a goal index outside the model.
    """
    if not mec.states:
        raise EmptyMec()
    goal = check_goal(vma, goal)
    origin = tuple(sorted(mec.states))
    local = {s: i for i, s in enumerate(origin)}
    kept = mec.action_map()
    actions: list[tuple[TwoCostAction, ...]] = []
    for s in origin:
        rows = []
        for label, dist in vma.enabled(s):
            if label not in kept[s]:
                continue
            sojourn = 1.0 / vma.exit_rate[s] if s in vma.ms else 0.0
            rows.append(
                TwoCostAction(
                    label=label,
                    c1=sojourn if (s in vma.ms and s in goal) else 0.0,
                    c2=sojourn,
                    dist=tuple((local[t], p) for t, p in dist),
                )
            )
        actions.append(tuple(sorted(rows, key=lambda r: r.label)))
    return TwoCostMdp(
        names=tuple(vma.name(s) for s in origin),
        origin=origin,
        actions=tuple(actions),
    )


def _damped_rows(kernel: Kernel, cost: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Damped Bellman application: the self-weight keeps the iteration
    # aperiodic without changing the stationary averages.
    return cost + _DAMPING * v[kernel.row_state] + (1.0 - _DAMPING) * kernel.expect(v)


def _rvi(
    kernel: Kernel,
    cost: np.ndarray,
    mode: str,
    span_tol: float,
    max_iters: int,
    sign_only: bool = False,
) -> tuple[float, float, int, np.ndarray]:
    """Relative value iteration for the optimal average of the row costs.

    Every sweep brackets the optimal average g between the smallest and
    the largest change `min(Tv - v) <= g <= max(Tv - v)` (Odoni, "On
    finding the maximal gain for Markov decision processes", Oper. Res.
    17, 1969; Puterman, Markov Decision Processes, 8.5): the component
    communicates, so g is one number for all its states.  Returns that
    bracket, the sweeps used and the relative values.  The iteration
    stops when the bracket is at most `span_tol` wide or, with
    `sign_only`, as soon as it lies wholly above or below zero.  Raises
    NotConverged when neither happens within `max_iters` sweeps.
    """
    v = np.zeros(len(kernel.upd), dtype=np.float64)
    for it in range(1, max_iters + 1):
        new = kernel.optimum(_damped_rows(kernel, cost, v), mode)
        diff = new - v
        lo, hi = float(diff.min()), float(diff.max())
        v = new - new[0]
        if hi - lo <= span_tol or (sign_only and (lo > 0.0 or hi < 0.0)):
            return lo, hi, it, v
    raise NotConverged(max_iters, hi - lo)


def _default_policy(vma: ValidatedMA, mec: Mec) -> dict[int, str]:
    kept = mec.action_map()
    return {
        s: min(kept[s]) for s in sorted(mec.states) if s in vma.ps
    }


def _check_ratio_tolerance(tol: float, max_iters: int) -> None:
    # Ratios lie in [0, 1], where no bisection narrows below one ulp of 1.
    check_tolerance(tol, max_iters)
    if tol < MIN_RATIO_TOL:
        raise ValueError(
            f"tol must be at least 2**-52 to bisect a ratio in [0, 1], got {tol!r}"
        )


def lra_unichain(
    vma: ValidatedMA,
    mec: Mec,
    goal: Iterable[int],
    mode: str = "min",
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[float, dict[int, str], int]:
    """Optimal long-run goal fraction inside one end component.

    Bisects on the candidate ratio k in [0,1]: the optimal per-step
    average g(k) of (c1 - k*c2) is nonincreasing in k and crosses zero
    exactly at the optimal ratio.  Each probe runs relative value
    iteration only until its sound bracket on g(k) (Odoni, Oper. Res.
    1969) lies above or below zero, or is `tol` wide; a bracket clear of
    zero moves the same bound as its midpoint would, so the bisection
    keeps its midpoint rule.  Returns the ratio, a witness policy on the
    component's probabilistic states (from a full-width pass at the
    ratio), and the number of inner sweeps.  Raises ValueError unless
    `mode` is "min" or "max", `tol` is finite and at least
    `MIN_RATIO_TOL` and `max_iters` is at least 1, `EmptyMec` for a
    component without states and `UnknownState` for a goal index outside
    the model.
    """
    check_mode(mode)
    _check_ratio_tolerance(tol, max_iters)
    if not mec.states:
        raise EmptyMec()
    goal = check_goal(vma, goal) & mec.states & vma.ms
    ms_inside = mec.states & vma.ms
    if not goal:
        return 0.0, _default_policy(vma, mec), 0
    if ms_inside <= goal:
        return 1.0, _default_policy(vma, mec), 0

    tc = two_cost_mdp(vma, mec, goal)
    kernel = Kernel.from_rows(range(tc.n), tc.actions)  # label-sorted rows
    c1 = np.array([a.c1 for acts in tc.actions for a in acts], dtype=np.float64)
    c2 = np.array([a.c2 for acts in tc.actions for a in acts], dtype=np.float64)
    span_tol = tol * 1.0  # ratios live in [0,1]
    iterations = 0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gmin, gmax, used, _ = _rvi(
            kernel, c1 - mid * c2, mode, span_tol, max_iters, sign_only=True
        )
        iterations += used
        if 0.5 * (gmin + gmax) > 0.0:
            lo = mid
        else:
            hi = mid
    k_star = 0.5 * (lo + hi)

    # Argopt choices at the crossing ratio, smallest label on ties.
    cost = c1 - k_star * c2
    *_, v = _rvi(kernel, cost, mode, span_tol, max_iters)
    local_policy = kernel.argopt(_damped_rows(kernel, cost, v), mode)
    policy = {
        tc.origin[i]: label
        for i, label in local_policy.items()
        if tc.origin[i] in vma.ps
    }
    return k_star, policy, iterations


def _quotient(
    vma: ValidatedMA, mec_list: Sequence[Mec], per_mec: Sequence[float]
) -> Quotient:
    model = SspInstance._of(vma.states, frozenset(), (), vma.initial, vma.csr,
                            np.zeros(len(vma.csr[4])))
    components = [(mec.states, mec.action_map()) for mec in mec_list]
    return collapse_end_components(model, components, commit=per_mec)


def build_ssp_lra(
    vma: ValidatedMA, mec_list: Sequence[Mec], per_mec: Sequence[float]
) -> SspInstance:
    """Quotient SSP: gates carry the exits, sinks carry the values.

    Component j becomes gate @uj plus absorbing sink @qj with terminal
    cost `per_mec[j]`.  The gate keeps every probabilistic transition
    leaving the component (qualified as "<state>.<label>") with successors
    inside any component redirected to that component's gate, plus a
    commit move to the sink.  States outside all components keep their
    transitions, similarly redirected.  All step costs are zero.  Raises
    ValueError unless `per_mec` has one value per component.
    """
    return _quotient(vma, mec_list, per_mec).ssp


def lra(
    vma: ValidatedMA,
    goal: Iterable[int],
    mode: str = "min",
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> LraResult:
    """Optimal long-run average fraction of time spent in the goal set.

    Runs the three-step pipeline (components, per-component ratios,
    quotient solve).  Values are per state; the witness policy records a
    commit-or-exit decision per component together with stationary choices
    realizing it.  Raises ValueError unless `mode` is "min" or "max",
    `tol` is finite and at least `MIN_RATIO_TOL` and `max_iters` is at
    least 1, and `UnknownState` for a goal index outside the model.
    """
    check_mode(mode)
    _check_ratio_tolerance(tol, max_iters)
    graph.require_non_zeno(vma)
    goal_ms = check_goal(vma, goal) & vma.ms  # probabilistic states take no time
    mec_list = graph.mecs(vma)
    per_mec: list[float] = []
    mec_policies: list[dict[int, str]] = []
    iterations = 0
    for mec in mec_list:
        value, policy, used = lra_unichain(
            vma, mec, goal_ms, mode=mode, tol=tol, max_iters=max_iters
        )
        per_mec.append(value)
        mec_policies.append(policy)
        iterations += used

    quotient = _quotient(vma, mec_list, per_mec)
    res = solve_ssp(quotient.ssp, mode, tol=tol, max_iters=max_iters)
    iterations += res.iterations

    decisions: dict[int, str | tuple[int, str]] = {}
    in_mec: dict[int, str] = {}
    for j in range(len(mec_list)):
        played = quotient.exit(vma, res, j)
        decisions[j], steering = ("stay", mec_policies[j]) if played is None else played
        in_mec.update(steering)
    return LraResult(
        mode=mode,
        per_mec=per_mec,
        values=quotient.values(res),
        policy=LraPolicy(decisions, in_mec, quotient.choices(res, sorted(vma.ps))),
        mecs=mec_list,
        iterations=iterations,
    )
