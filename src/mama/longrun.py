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

Both modes of a query share everything but the per-state optimum, and
the bisection for either makes the same number of probes, so a "both"
query runs them in lockstep: each probe, and the final pass, steps one
copy per mode on the component's kernel tiled over the copies, the
maximum's copy negated as in the timed loops (`model._stack`).  Each copy
stops on its own bracket, and the other goes on alone, so every ratio,
policy and sweep count is bit for bit that of a single-mode query.  The
quotient is then solved once per mode.
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
from .model import Kernel, ValidatedMA, _modes, _stack, check_goal

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
    index of local state `i` in the full model.  `lra_unichain` cuts the
    same rows and costs from the model's arrays; this form is the input
    of the oracle's LP.
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
    costs: Sequence[np.ndarray],
    modes: Sequence[str],
    span_tol: float,
    max_iters: int,
    sign_only: bool = False,
    tiled: Kernel | None = None,
) -> list[tuple[float, float, int, np.ndarray]]:
    """Relative value iteration for the optimal average of row costs, one
    copy per mode, all stepped in lockstep.

    Copy j iterates the row costs `costs[j]` in mode `modes[j]`.  The
    copies lie side by side on `kernel` tiled over them (`tiled`, if the
    caller has it), as `model._stack` lays them out: the maximum's copy
    negated, so every sweep takes one minimum over all copies and each
    copy is bit for bit what a run of its own gives.  Every sweep brackets
    each copy's optimal average g between the smallest and the largest
    change `min(Tv - v) <= g <= max(Tv - v)` of its relative values
    (Odoni, "On finding the maximal gain for Markov decision processes",
    Oper. Res. 17, 1969; Puterman, Markov Decision Processes, 8.5): the
    component communicates, so g is one number for all its states.  A
    copy stops when its bracket is at most `span_tol` wide or, with
    `sign_only`, as soon as it lies wholly above or below zero; the copies
    left go on from their vectors on a kernel tiled over them alone, the
    untiled `kernel` for one.  Returns per copy its last bracket, the
    sweeps it used and its relative values.  Raises NotConverged, with
    the first unstopped copy's bracket width, when a copy does not stop
    within `max_iters` sweeps.
    """
    n, rows = len(kernel.upd), len(kernel.succ_starts)
    live = list(range(len(modes)))
    layout = kernel.tile(len(live), n) if tiled is None else tiled
    cost = _stack(costs, modes)
    w = np.zeros(len(live) * n, dtype=np.float64)
    heads = np.arange(0, len(w), n)  # the first entry of each copy
    firsts = np.repeat(heads, n)
    out: list = [None] * len(modes)
    for it in range(1, max_iters + 1):
        new = layout.optimum(_damped_rows(layout, cost, w), "min")
        diff = new - w
        low = np.minimum.reduceat(diff, heads).tolist()
        high = np.maximum.reduceat(diff, heads).tolist()
        w = new - new[firsts]
        # A negated copy's bracket is (-high, -low): as wide, and clear of
        # zero exactly when (low, high) is, so one rule stops every copy.
        going = [
            j for j, (lo, hi) in enumerate(zip(low, high))
            if hi - lo > span_tol and not (sign_only and (lo > 0.0 or hi < 0.0))
        ]
        if len(going) == len(live):
            continue
        for j, c in enumerate(live):
            if j not in going:
                v = w[j * n:(j + 1) * n]
                if modes[c] == "min":
                    out[c] = (low[j], high[j], it, v)
                else:
                    out[c] = (-high[j], -low[j], it, -v)
        if not going:
            return out
        live = [live[j] for j in going]
        layout = kernel.tile(len(live), n)
        cost = cost.reshape(-1, rows)[going].ravel()
        w = w.reshape(-1, n)[going].ravel()
        heads, firsts = heads[:len(live)], firsts[:len(w)]
    # A negated copy's width high - low is bit for bit its own.
    raise NotConverged(max_iters, high[going[0]] - low[going[0]])


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
) -> tuple:
    """Optimal long-run goal fraction inside one end component.

    Bisects on the candidate ratio k in [0,1]: the optimal per-step
    average g(k) of (c1 - k*c2) is nonincreasing in k and crosses zero
    exactly at the optimal ratio.  Each probe runs relative value
    iteration only until its sound bracket on g(k) (Odoni, Oper. Res.
    1969) lies above or below zero, or is `tol` wide; a bracket clear of
    zero moves the same bound as its midpoint would, so the bisection
    keeps its midpoint rule.  For one mode, "min" or "max", returns the
    ratio, a witness policy on the component's probabilistic states (from
    a full-width pass at the ratio), and the number of inner sweeps.  For
    "both", both bisections make the same probes, so each probe and the
    final pass step the two modes in lockstep (`_rvi`), and the result is
    the per-mode ratios, policies and sweeps, each a dict by mode, with
    the sweeps of both modes added up in third place: (ratios, policies,
    total sweeps, sweeps).  Each mode's entries are bit for bit those of
    a call for that mode alone.  Raises ValueError unless `mode` is
    "min", "max" or "both", `tol` is finite and at least `MIN_RATIO_TOL`
    and `max_iters` is at least 1, `EmptyMec` for a component without
    states and `UnknownState` for a goal index outside the model.
    """
    modes = _modes(mode)
    _check_ratio_tolerance(tol, max_iters)
    if not mec.states:
        raise EmptyMec()
    goal = check_goal(vma, goal) & mec.states & vma.ms
    if not goal or mec.states & vma.ms <= goal:
        ratio = 1.0 if goal else 0.0
        solved = [(ratio, _default_policy(vma, mec), 0) for _ in modes]
    else:
        solved = _bisect(vma, mec, goal, modes, tol, max_iters)
    if len(modes) == 1:
        return solved[0]
    ratios, policies, sweeps = (dict(zip(modes, part)) for part in zip(*solved))
    return ratios, policies, sum(sweeps.values()), sweeps


def _bisect(
    vma: ValidatedMA,
    mec: Mec,
    goal: frozenset[int],
    modes: Sequence[str],
    tol: float,
    max_iters: int,
) -> list[tuple[float, dict[int, str], int]]:
    """Per mode the ratio, policy and sweeps of `lra_unichain` on a
    component with Markovian states both inside and outside `goal`."""
    # The component's kept rows of the model's kernel, its states numbered
    # by their positions among the sorted members; a row costs the sojourn
    # 1/E(s) of a Markovian owner s under c2, and under c1 if s is a goal.
    members = np.array(sorted(mec.states))
    row_start, *_, label = vma.csr
    kept = mec.action_map()
    bounds = zip(members.tolist(), row_start[members].tolist(), row_start[members + 1].tolist())
    rows = [r for s, first, end in bounds for r in range(first, end) if label[r] in kept[s]]
    kernel = Kernel.cut(vma.csr, members, np.array(rows, dtype=np.int64))
    owner = kernel.row_state.tolist()
    c2 = np.array([1.0 / vma.exit_rate[s] if s in vma.ms else 0.0 for s in owner])
    c1 = np.where([s in goal for s in owner], c2, 0.0)
    kernel.upd, kernel.row_state, kernel.succ_idx = (
        np.searchsorted(members, a) for a in (kernel.upd, kernel.row_state, kernel.succ_idx))
    tiled = kernel.tile(len(modes), len(members))
    span_tol = tol * 1.0  # ratios live in [0,1]
    sweeps = [0] * len(modes)
    lo, hi = [0.0] * len(modes), [1.0] * len(modes)
    # Every mode halves the same width from [0, 1] (the midpoints of
    # dyadic bounds are exact), so all make the same number of probes.
    while hi[0] - lo[0] > tol:
        mid = [0.5 * (a + b) for a, b in zip(lo, hi)]
        probes = _rvi(
            kernel, [c1 - k * c2 for k in mid], modes, span_tol, max_iters,
            sign_only=True, tiled=tiled,
        )
        for j, (gmin, gmax, used, _) in enumerate(probes):
            sweeps[j] += used
            if 0.5 * (gmin + gmax) > 0.0:
                lo[j] = mid[j]
            else:
                hi[j] = mid[j]
    k_star = [0.5 * (a + b) for a, b in zip(lo, hi)]

    # Argopt choices at the crossing ratio, smallest label on ties.
    costs = [c1 - k * c2 for k in k_star]
    final = _rvi(kernel, costs, modes, span_tol, max_iters, tiled=tiled)
    solved = []
    for mode, k, cost, (*_, v), used in zip(modes, k_star, costs, final, sweeps):
        local_policy = kernel.argopt(_damped_rows(kernel, cost, v), mode)
        policy = {
            s: local_policy[i] for i, s in enumerate(members.tolist()) if s in vma.ps
        }
        solved.append((k, policy, used))
    return solved


def _quotient(
    vma: ValidatedMA, mec_list: Sequence[Mec], per_mec: Sequence[float]
) -> Quotient:
    model = SspInstance._of(vma.states, frozenset(), (), vma.csr, np.zeros(len(vma.csr[4])))
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
) -> LraResult | dict[str, LraResult]:
    """Optimal long-run average fraction of time spent in the goal set.

    Runs the three-step pipeline (components, per-component ratios,
    quotient solve).  Values are per state; the witness policy records a
    commit-or-exit decision per component together with stationary choices
    realizing it.  For "both" the two modes share the components, each
    component's ratios come from one lockstep `lra_unichain` call, and
    each mode then solves its own quotient; the result is a dict by mode
    of the `LraResult`s that "min" and "max" give alone, and a
    `NotConverged` is the one that "min" and then "max" alone would raise.

    A run that stays forever in an end component of probabilistic states
    only spends no time at all, and counts as spending no fraction of it
    in any goal set.  So the minimum can be 0 for the goal set and for its
    complement alike, and lra_min(G) + lra_max(S - G) = 1 need not hold.

    Raises ValueError unless `mode` is "min", "max" or "both", `tol` is
    finite and at least `MIN_RATIO_TOL` and `max_iters` is at least 1,
    and `UnknownState` for a goal index outside the model.
    """
    modes = _modes(mode)
    _check_ratio_tolerance(tol, max_iters)
    graph.require_non_zeno(vma)
    goal_ms = check_goal(vma, goal) & vma.ms  # probabilistic states take no time
    mec_list = graph.mecs(vma)
    solved = {m: [] for m in modes}  # per mode and component: ratio, policy, sweeps
    try:
        for mec in mec_list:
            out = lra_unichain(vma, mec, goal_ms, mode=mode, tol=tol, max_iters=max_iters)
            if len(modes) == 1:
                solved[mode].append(out)
                continue
            ratios, policies, _, sweeps = out
            for m in modes:
                solved[m].append((ratios[m], policies[m], sweeps[m]))
    except NotConverged:
        # The lockstep may meet the maximum's failure before one the
        # minimum meets later on; raise what the modes in turn raise.
        for m in modes[:-1]:
            lra(vma, goal, m, tol, max_iters)
        raise

    results = {}
    for m, parts in solved.items():
        per_mec = [value for value, _, _ in parts]
        quotient = _quotient(vma, mec_list, per_mec)
        res = solve_ssp(quotient.ssp, m, tol=tol, max_iters=max_iters)
        decisions: dict[int, str | tuple[int, str]] = {}
        in_mec: dict[int, str] = {}
        for j, (_, policy, _) in enumerate(parts):
            played = quotient.exit(vma, res, j)
            decisions[j], steering = ("stay", policy) if played is None else played
            in_mec.update(steering)
        results[m] = LraResult(
            mode=m,
            per_mec=per_mec,
            values=quotient.values(res),
            policy=LraPolicy(decisions, in_mec, quotient.choices(res, sorted(vma.ps))),
            mecs=mec_list,
            iterations=sum(used for _, _, used in parts) + res.iterations,
        )
    return results if len(modes) > 1 else results[mode]
