"""Timed interval reachability probabilities with certified error.

A [0, b] query is first tried by uniformisation with two scheduler bounds
(Unif+; Butkova, Hatefi, Hermanns & Krcal, ATVA 2015).  The model is
uniformised at a rate Lambda at or above its exit rate bound, so the
number N of Markovian jumps up to b is Poisson(Lambda b), and jumps
alternate with the optimal zero-time propagation through probabilistic
states.  A
scheduler that knows N in advance does at least as well as any
time-dependent one, so sum_n psi(n) R_n, with R_n the optimal probability
of reaching the goal within n jumps, bounds the maximum from above and the
minimum from below.  A scheduler that sees only the number of jumps so far
is one of the time-dependent ones; its optimum, a backward recursion that
credits a goal hit at jump i with P[i <= N], bounds the maximum from below
and the minimum from above.  The Poisson weights psi are cut at the
smallest K whose right tail is at most eps / 8 (Fox & Glynn, CACM 1988),
both bounds credit jumps up to K only, and the tail is added to the upper
bound.  One attempt counts as 2K + 1 steps, K for the knows-N bound and
K + 1 for the recursion; the two bounds share one loop of K + 1 rounds
on four copies of the value vector (`_uniformised`).  A higher rate
gives the same process with more, shorter jumps, so both bounds hold at
any Lambda, and the gap between them tends to 0 as Lambda grows.  Attempt i
runs at Lambda = lambda_max 2^i, and only while the steps of all
attempts, its own included, are fewer than the discretisation's k.  The
first attempt whose brackets in both directions are all within eps
answers; if none does, the query falls back to the paper's
discretisation, so a query takes fewer than 2k steps in all.  The choice
depends on the model and the interval alone, so every mode of one query,
and every single-mode query, takes the same route.

The discretisation slices continuous time into steps of length delta,
small enough that a step carries at most one Markovian jump with high
probability.  On the resulting discretised model a value iteration
alternates m-phases (one discretised Markovian step) with i*-phases
(optimal zero-time propagation through probabilistic states).  The step
count k is chosen from the exit rate bound so that the discretisation
error lambda^2 b^2 / (2k) stays below the requested accuracy; the reported
upper bound uses the tighter of that bound and the exact
one-jump-per-step violation probability 1 - e^(-lambda b) (1 + lambda
delta)^k.

Both schemes run their phases on `model.Kernel`: the m-phase is one
kernel over the Markovian states, each with its single one-step row, and
the i*-phase applies one kernel per zero-time level, lowest level first,
so a round is a fixed number of numpy reductions with no per-state Python
loop.  Every one of these kernels is cut by `Kernel.cut` from the
model's kernel of all states (`ValidatedMA.kernel`), and the one-step
rows are merged by `model._merged`, with no per-entry Python loop.  A
timed query depends on the model only up to the first goal visit, so no
scheme reads a goal state's rows: the m-phase drops them and the
i*-phase holds goal values, as if the goal states were absorbing.  Every route of a query thus reads the validated model, with
its one kernel and its one set of zero-time levels per goal set.

Everything but the per-state optimum is the same for minimum and
maximum, so one loop serves several modes: the value vector
holds one copy per mode side by side, with the maximum's copy negated so
that every optimum is a minimum.  max(x) = -min(-x), negation is exact,
and round-to-nearest is symmetric in sign, so each copy is bit for bit
what a loop of its own would give.

Every interval [a, b] with a > 0 runs through one two-phase scheme (an
engineering extension; see docs/format.md): phase one analyses the
model with goal values held on horizon b-a, phase two continues for
horizon a with goal membership no longer credited, so the result is the
probability that the FIRST visit to the goal set falls inside [a, b].
Each phase has its own step width dividing its own horizon, and both
read the one set of zero-time levels.  The discretisation of [0, b] is
the case a = 0: no phase two and no phase-two error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import graph
from .errors import StepOverflow
from .mdpsolve import ZeroTimePropagator
from .model import (
    Kernel,
    ValidatedMA,
    _merged,
    _modes,
    _once,
    _stack,
    _unstack,
    check_goal,
)
# The benchmark's tracer (perfbench/spans.py) wraps this name; no query calls it.
from .model import make_absorbing  # noqa: F401

STEP_CAP = 2**40

# The share of eps that the Poisson right tail may take from a
# uniformisation bracket.
TAIL_SHARE = 1 / 8

# Right of the mode, Poisson weights below this fraction of the mode's
# weight are dropped; what they carry is far below the roundoff allowance.
_NEGLIGIBLE = 1e-20

@dataclass(frozen=True)
class TimedQuery:
    """Reach `goal` first within [a, b] to accuracy `eps`; `mode` is "min",
    "max" or "both" (both directions in one step loop)."""

    goal: frozenset[int]
    b: float
    a: float = 0.0
    eps: float = 1e-3
    mode: str = "max"

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"need a finite interval, got [{self.a}, {self.b}]")
        if not (0.0 <= self.a <= self.b):
            raise ValueError(f"need 0 <= a <= b, got [{self.a}, {self.b}]")
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"accuracy must lie in (0,1), got {self.eps}")
        _modes(self.mode)


@dataclass(frozen=True)
class DiscretisedMA:
    """One-step distributions of the discretised model.

    For a Markovian state the step distribution keeps mass e^(-E(s) delta)
    in place and spreads the rest along the branching probabilities;
    probabilistic states are untouched.  `step` holds the one row of each
    Markovian state, with its positive entries, as a `Kernel` (see
    `_one_step`).  A discretisation serves one step width, so one phase
    of a query.
    """

    vma: ValidatedMA
    delta: float
    step: Kernel


@dataclass
class BoundedResult:
    """Certified per-state brackets of a timed query.

    `brackets` maps each queried mode to its (lower, upper) lists.  `lower`
    is the first mode's lower bound and `upper` the last mode's upper bound:
    for one mode its bracket, for "both" a bracket on the probability under
    every scheduler.  `steps` and `steps_a` count the steps of the one
    step loop that served all modes; `steps` includes the 2K + 1 steps of
    every uniformisation attempt (each run as K + 1 rounds on four
    copies), whether or not it answered.  `delta_used` is
    phase one's step width and `delta_a` phase two's, each 0.0 when that
    phase took no discretised step.  `error_term`
    bounds the bracket width: the a-priori bound of the discretisation, or
    the widest bracket of the answering uniformisation attempt.
    """

    lower: list[float]
    upper: list[float]
    delta_used: float
    steps: int
    steps_a: int = 0
    delta_a: float = 0.0
    error_term: float = 0.0
    brackets: dict[str, tuple[list[float], list[float]]] = field(default_factory=dict)


def _brackets(
    low: np.ndarray, high: np.ndarray, below: Sequence[float], above: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """`low` less each margin of `below` and `high` plus each of `above`, in
    order, clipped into [0, 1]."""
    for margin in below:
        low = low - margin
    for margin in above:
        high = high + margin
    return np.clip(low, 0.0, 1.0), np.minimum(high, 1.0)


def _result(
    modes: Sequence[str], low: np.ndarray, high: np.ndarray, **kw
) -> BoundedResult:
    """The result whose mode j has bracket (low[j], high[j])."""
    brackets = {m: (lo.tolist(), hi.tolist()) for m, lo, hi in zip(modes, low, high)}
    return BoundedResult(
        lower=brackets[modes[0]][0], upper=brackets[modes[-1]][1], brackets=brackets,
        **kw,
    )


def choose_delta(lambda_max: float, b: float, eps: float) -> tuple[float, int]:
    """Step count and width meeting the accuracy for horizon [0, b].

    The interval grid for a = 0: k = ceil(lambda^2 b^2 / (2 eps)) computed
    exactly, delta = b / k; then the a-priori error lambda^2 b^2/(2k) is at
    most eps.  Queries needing more than 2^40 steps are refused; ValueError
    is raised unless lambda_max and b are finite and positive and eps lies
    in (0, 1).
    """
    if not (0 < lambda_max < math.inf and 0 < b < math.inf and 0 < eps < 1):
        raise ValueError(
            "need finite lambda_max > 0, finite b > 0, eps in (0,1), "
            f"got {lambda_max}, {b}, {eps}"
        )
    (delta, k), _ = _interval_grid(lambda_max, 0.0, b, eps)
    return delta, k


def discretise(vma: ValidatedMA, delta: float) -> DiscretisedMA:
    """Build the one-step distributions for step width `delta`."""
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    stay = np.array([math.exp(-vma.exit_rate[s] * delta) for s in sorted(vma.ms)])
    return DiscretisedMA(vma=vma, delta=delta, step=_one_step(vma, 1.0 - stay, stay))


def _one_step(vma: ValidatedMA, jump: np.ndarray, stay: np.ndarray) -> Kernel:
    """The one-step rows of the Markovian states, in ascending order, as a
    kernel: state i of them moves mass `jump[i]` along its branching
    probabilities and keeps mass `stay[i]` in place.

    Each row is its branching row of the model's kernel, cut by `cut`,
    with every probability p scaled to jump * p, and a stay entry (the
    state itself) after them, merged by successor by `_merged`; the cut of
    the merged kernel drops the entries of zero mass.  These are the sums
    and products of merging the two into one successor map, so the rows
    are the same floats.
    """
    ms = np.array(sorted(vma.ms), dtype=np.int64)
    branching = vma.kernel.cut(ms)
    # A Markovian state owns one row, so an entry's row is its state's place.
    owner = branching.entry_row()
    merged = _merged(
        np.concatenate((owner, np.arange(len(ms)))),
        np.concatenate((branching.succ_idx, ms)),
        np.concatenate((jump[owner] * branching.succ_p, stay)),
        len(ms), vma.n,
    )
    return Kernel.from_arrays(ms, np.arange(len(ms)), *merged).cut(np.arange(len(ms)))


def _mphase(step: Kernel, goal: frozenset[int], n: int, copies: int) -> Kernel:
    """The m-phase: the rows of `step` over the non-goal states, tiled over
    `copies` vectors of `n` entries."""
    held = np.fromiter(goal, np.int64, len(goal))
    return step.cut(np.flatnonzero(~np.isin(step.upd, held))).tile(copies, n)


def _phases(
    dma: DiscretisedMA, goal: frozenset[int], copies: int
) -> tuple[ZeroTimePropagator, Kernel]:
    """The i*-phase and the m-phase of `dma` for `goal`, tiled over `copies`."""
    return _istar(dma.vma, goal, copies), _mphase(dma.step, goal, dma.vma.n, copies)


def _istar(vma: ValidatedMA, goal: frozenset[int], copies: int) -> ZeroTimePropagator:
    """The zero-time propagation over the probabilistic non-goal states,
    tiled over `copies`; it has no level when there are none.  The levels
    are built once per model and goal and stored on the model, so a
    uniformisation attempt and the discretisation after it share them."""
    solved_ps = frozenset(vma.ps) - goal
    levels = _once(
        vma, ("istar", goal),
        lambda v: ZeroTimePropagator(v, frozenset(range(v.n)) - solved_ps),
    )
    return levels.tile(copies)


def _steps(
    w: np.ndarray, k: int, istar: ZeroTimePropagator, mphase: Kernel | None
) -> np.ndarray:
    """One i*-phase on `w`, then k rounds of m-phase and i*-phase, in place.

    `w` is a `_stack` of one value vector per mode, and both phases are
    tiled over its copies (`_phases`), so a round costs one reduction per
    kernel whatever the number of modes.  Goal entries are held.  With
    k = 0 no m-phase runs, and `mphase` may be None.
    """
    istar.apply(w)
    for _ in range(k):
        # One row per state: the row expectation is the state's value.
        # The right-hand side is evaluated before the write (Jacobi).
        w[mphase.upd] = mphase.expect(w)
        istar.apply(w)
    return w


def _indicator(n: int, goal: frozenset[int]) -> np.ndarray:
    v = np.zeros(n, dtype=np.float64)
    v[sorted(goal)] = 1.0
    return v


def step_bounded_reach(
    dma: DiscretisedMA, goal: Iterable[int], k: int, mode: str = "max"
) -> list[float]:
    """Optimal k-step reachability in the discretised model, goal absorbed.

    Starts from the indicator of the goal set refined by one zero-time
    propagation, then alternates m-phases (Jacobi, reading only the
    previous vector) and i*-phases for k rounds.  Values are nondecreasing
    in k.  With `mode` "both" one loop serves both directions, and the
    minimum's values are followed by the maximum's.  A goal index outside
    the model raises `UnknownState`.
    """
    if k < 0:
        raise ValueError("step count must be >= 0")
    goal = check_goal(dma.vma, goal)
    modes = _modes(mode)
    start = _indicator(dma.vma.n, goal)
    w = _steps(_stack([start] * len(modes), modes), k, *_phases(dma, goal, len(modes)))
    return np.concatenate(_unstack(w, modes)).tolist()


def _exact_violation(lam: float, horizon: float, delta: float, k: int) -> float:
    # 1 - e^(-lam*horizon) (1 + lam*delta)^k, evaluated without cancellation.
    if k == 0 or horizon == 0.0:
        return 0.0
    exponent = -lam * horizon + k * math.log1p(lam * delta)
    return -math.expm1(exponent)


def _roundoff_allowance(steps: int) -> float:
    # Accumulated floating-point drift over the sweeps; keeps models whose
    # discretised value is exact (single chains) strictly inside the
    # bracket even against references with their own 1e-12 truncation.
    return max(4e-12, 8.0 * steps * 2.220446049250313e-16)


def _interval_grid(
    lam: float, a: float, b: float, eps: float
) -> tuple[tuple[float, int], tuple[float, int]]:
    """Step width and count of each phase, (delta_r, k_r) and (delta_a, k_a),
    within the eps budget.

    Phase one contributes a one-sided error lambda^2 (b-a) delta_r / 2 and
    phase two a two-sided one of lambda^2 a delta_a / 2 on each flank.
    With W = (b-a) + 2a, each phase of horizon h takes
    k = ceil(h lambda^2 W / (2 eps)) steps of width h / k, computed exactly,
    so it contributes at most eps h / W and the bracket is at most eps wide.
    A phase of horizon 0 takes no step and has width 0.0.
    """
    fa, fr = Fraction(a), Fraction(b) - Fraction(a)
    per_time = Fraction(lam) ** 2 * (fr + 2 * fa) / (2 * Fraction(eps))

    def phase(h: Fraction) -> tuple[float, int]:
        if h == 0:
            return 0.0, 0
        k = max(1, math.ceil(h * per_time))
        return float(h / k), k

    (delta_r, k_r), (delta_a, k_a) = phase(fr), phase(fa)
    if k_r + k_a > STEP_CAP:
        raise StepOverflow(k_r + k_a, STEP_CAP)
    return (delta_r, k_r), (delta_a, k_a)


def poisson_weights(mean: float, tail: float) -> tuple[np.ndarray, float]:
    """Poisson(`mean`) probabilities of 0..K for the smallest K whose right
    tail is at most `tail`, and that tail.

    As in Fox & Glynn (CACM 1988) the weights grow outwards from the mode,
    where the unnormalised weight is 1, by the ratio of neighbouring
    terms, and are then divided by their sum; no term starts from
    e^(-mean), which underflows once the mean passes about 745.  On the
    left the weights run down to 0 or until they underflow; on the right
    they stop below `_NEGLIGIBLE`, a relative 1e-20 that no returned
    number can show.
    """
    if not (math.isfinite(mean) and mean >= 0.0 and 0.0 < tail < 1.0):
        raise ValueError(
            f"need a finite mean >= 0 and a tail in (0,1), got {mean}, {tail}"
        )
    mode = math.floor(mean)
    left = [1.0]  # weights of mode, mode - 1, ...
    for n in range(mode, 0, -1):
        if left[-1] == 0.0:
            break
        left.append(left[-1] * n / mean)
    left += [0.0] * (mode + 1 - len(left))
    right = []
    w, n = 1.0, mode
    while w >= _NEGLIGIBLE:
        n += 1
        w *= mean / n
        right.append(w)
    weights = np.array(left[::-1] + right)
    weights /= math.fsum(weights)
    # beyond[j] is the mass of j, j + 1, ..., summed from the small end.
    beyond = np.append(np.cumsum(weights[::-1])[::-1], 0.0)
    k = int(np.flatnonzero(beyond[1:] <= tail)[0])
    return weights[: k + 1], float(beyond[k + 1])


def _uniformised(
    vma: ValidatedMA, goal: frozenset[int], lam: float, psi: np.ndarray, tail: float
) -> tuple[np.ndarray, np.ndarray]:
    """The min and max brackets of the two uniformisation bounds, as the
    rows of a lower and an upper array.

    `vma` is uniformised at rate `lam`, and `psi` holds the Poisson
    weights of 0..K jumps with right tail `tail`.  The knows-N
    bound takes K rounds of m- and i*-phase after a first i*-phase, and
    the jump-counting recursion K + 1 rounds, both on the min and max
    copies.  The two run side by side in one loop of K + 1 rounds on four
    copies, knows-N first: round 0 skips the m-phase, which the knows-N
    bound does not take and which leaves the counting recursion's initial
    zeros as they are, and every tiled reduction gives each copy what a
    loop of its own would.  The steps reported stay 2K + 1.
    Mathematically the knows-N bound lies below the counting one for min
    and above it for max; each mode's bracket runs from the smaller of the
    two to the larger plus the tail, so a model without choices gets equal
    brackets in both modes.
    """
    modes = _modes("both")
    istar = _istar(vma, goal, 4)
    jump = np.array(vma.exit_rate)[sorted(vma.ms)] / lam
    mphase = _mphase(_one_step(vma, jump, 1.0 - jump), goal, vma.n, 4)
    start = _stack([_indicator(vma.n, goal)] * 2, modes)
    half = len(start)
    w = np.concatenate((start, np.zeros_like(start)))
    # A goal hit at jump i earns P[i <= N <= K], summed from the small end;
    # the counting recursion runs from V_{K+1} = 0 down to V_0.
    held = np.flatnonzero(start)
    sign = start[held]
    knows = np.zeros_like(start)
    for i, (p, credit) in enumerate(zip(psi, np.cumsum(psi[::-1]))):
        if i:
            w[mphase.upd] = mphase.expect(w)
        w[half + held] = credit * sign
        istar.apply(w)
        knows += p * w[:half]
    counting = w[half:]
    # Goal states have reached the goal, whatever the number of jumps.
    knows[held] = counting[held] = sign
    x, y = np.array(_unstack(knows, modes)), np.array(_unstack(counting, modes))
    fuzz = _roundoff_allowance(2 * len(psi) - 1)
    return _brackets(np.minimum(x, y), np.maximum(x, y), (fuzz,), (tail, fuzz))


def timed_reachability(vma: ValidatedMA, query: TimedQuery) -> BoundedResult:
    """Certified bracket on the interval reachability probability.

    A [0, b] query is first tried by uniformisation (module docstring) at
    lambda_max, 2 lambda_max, 4 lambda_max, ... while the 2K + 1 steps of
    all attempts so far are fewer than the discretisation's k steps; the
    step counts are fixed first, so `StepOverflow` is raised whatever the
    route.  The first attempt whose brackets of both modes are all within
    eps answers.  Otherwise, and for every interval with a > 0, the two-phase
    scheme runs, each phase discretised at its own step width.  Phase
    one's value is a lower bound, and adding its discretisation error
    gives the upper bound; phase two (a > 0 only) widens both sides by
    its own error term.  [0, 0] is exact zero-time propagation.  Every mode of the query runs in the same step loop.  A
    goal index outside the model raises `UnknownState` on every route.
    """
    graph.require_non_zeno(vma)
    goal = check_goal(vma, query.goal)
    modes = _modes(query.mode)

    if query.b == 0.0:
        # Without a horizon zero-time propagation is exact.
        w = _stack([_indicator(vma.n, goal)] * len(modes), modes)
        values = np.array(_unstack(_steps(w, 0, _istar(vma, goal, len(modes)), None), modes))
        return _result(modes, values, values, delta_used=0.0, steps=0)

    lam = vma.lambda_max
    (delta_r, k_r), (delta_a, k_a) = _interval_grid(lam, query.a, query.b, query.eps)
    steps, rate = 0, lam
    while query.a == 0.0:
        # Attempt i uniformises at lam 2^i while all attempts stay below k_r.
        psi, tail = poisson_weights(rate * query.b, query.eps * TAIL_SHARE)
        if steps + 2 * len(psi) - 1 >= k_r:
            break
        steps += 2 * len(psi) - 1
        low, high = _uniformised(vma, goal, rate, psi, tail)
        widest = float((high - low).max())
        if widest <= query.eps:
            rows = [_modes("both").index(m) for m in modes]
            return _result(
                modes, low[rows], high[rows],
                delta_used=0.0, steps=steps, error_term=widest,
            )
        rate *= 2.0
    r = query.b - query.a
    if k_r:
        dma = discretise(vma, delta_r)
        values = np.reshape(step_bounded_reach(dma, goal, k_r, query.mode), (len(modes), -1))
    else:
        # [a, a]: phase one takes no step, so its Markovian non-goal values
        # are 0; phase two zeroes the goal and re-propagates the rest.
        values = np.zeros((len(modes), vma.n))

    # Phase one underestimates by at most err_r; phase two perturbs in both
    # directions by at most err_a (one kernel swap per chunk).
    err_r = min(
        (lam * lam * r * r / (2.0 * k_r)) if k_r else 0.0,
        _exact_violation(lam, r, delta_r, k_r),
    )
    err_a = 0.0
    if k_a:
        # First-visit semantics: a goal visit strictly before the interval
        # disqualifies the path, so goal values carry nothing into phase two
        # (arrival exactly at the boundary has measure zero), and the
        # probabilistic states are re-propagated against the zeroed values.
        # Phase two steps at its own width and reads phase one's zero-time
        # levels.
        values[:, sorted(goal)] = 0.0
        dma = discretise(vma, delta_a)
        w = _steps(_stack(values, modes), k_a, *_phases(dma, goal, len(modes)))
        values = np.array(_unstack(w, modes))
        err_a = min(
            lam * lam * query.a * query.a / (2.0 * k_a),
            k_a * _exact_violation(lam, delta_a, delta_a, 1),
        )
    fuzz = _roundoff_allowance(k_r + k_a)
    return _result(
        modes, *_brackets(values, values, (err_a, fuzz), (err_r, err_a, fuzz)),
        delta_used=delta_r, steps=steps + k_r, steps_a=k_a, delta_a=delta_a,
        error_term=err_r + 2.0 * err_a + 2.0 * fuzz,
    )
