"""Timed interval reachability probabilities with certified error.

Continuous time is sliced into steps of length delta, small enough that a
step carries at most one Markovian jump with high probability.  On the
resulting discretised model a value iteration alternates m-phases (one
discretised Markovian step) with i*-phases (optimal zero-time propagation
through probabilistic states).  Both phases run on `mdpsolve.Kernel`:
the m-phase is one kernel over the Markovian states, each with its single
discretised row, and the i*-phase applies one kernel per zero-time level,
lowest level first, so a round is a fixed number of numpy reductions with
no per-state Python loop.  Everything but the per-state optimum is the
same for minimum and maximum, so one query runs one loop for all its
modes: the absorbed model, the discretisation and the zero-time levels are
built once, and the value vector holds one copy per mode side by side,
with the maximum's copy negated so that every optimum is a minimum.
max(x) = -min(-x), negation is exact, and round-to-nearest is symmetric in
sign, so each copy is bit for bit what a loop of its own would give.  The
step count k is chosen from the exit
rate bound so that the discretisation error lambda^2 b^2 / (2k) stays
below the requested accuracy; the reported upper bound uses the tighter
of that bound and the exact one-jump-per-step violation probability
1 - e^(-lambda b) (1 + lambda delta)^k.

Every interval [a, b] runs through one two-phase scheme (an engineering
extension; see docs/format.md) on one step grid that divides both a and
b-a: phase one analyses the goal-absorbing model on horizon b-a, phase
two continues for horizon a with goal membership no longer credited, so
the result is the probability that the FIRST visit to the goal set falls
inside [a, b].  Phase two only reads non-goal states, whose one-step
distributions the absorbed model shares with the original one, so both
phases run on the one discretisation of the absorbed model.  [0, b] is
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
from .mdpsolve import Kernel, Row, ZeroTimePropagator
from .model import BOT, ValidatedMA, make_absorbing

STEP_CAP = 2**40

# The copies of the value vector, in order, that serve each query mode.
_MODES = {"min": ("min",), "max": ("max",), "both": ("min", "max")}


def _modes(mode: str) -> tuple[str, ...]:
    if mode not in _MODES:
        raise ValueError(f"mode must be 'min', 'max' or 'both', got {mode!r}")
    return _MODES[mode]


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
        if self.b == 0.0 and self.a != 0.0:
            raise ValueError("empty interval")
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"accuracy must lie in (0,1), got {self.eps}")
        _modes(self.mode)


@dataclass(frozen=True)
class DiscretisedMA:
    """One-step distributions of the discretised model.

    For a Markovian state the step distribution keeps mass e^(-E(s) delta)
    in place and spreads the rest along the branching probabilities;
    probabilistic states are untouched.
    """

    vma: ValidatedMA
    delta: float
    mu: tuple[tuple[tuple[int, float], ...], ...]


@dataclass
class BoundedResult:
    """Certified per-state brackets of a timed query.

    `brackets` maps each queried mode to its (lower, upper) lists.  `lower`
    is the first mode's lower bound and `upper` the last mode's upper bound:
    for one mode its bracket, for "both" a bracket on the probability under
    every scheduler.  `steps` and `steps_a` count the rounds of the one
    step loop that served all modes.
    """

    lower: list[float]
    upper: list[float]
    delta_used: float
    steps: int
    steps_a: int = 0
    error_term: float = 0.0
    brackets: dict[str, tuple[list[float], list[float]]] = field(default_factory=dict)


def _result(
    modes: Sequence[str], brackets: Sequence[tuple[list[float], list[float]]], **kw
) -> BoundedResult:
    return BoundedResult(
        lower=brackets[0][0], upper=brackets[-1][1], brackets=dict(zip(modes, brackets)),
        **kw,
    )


def choose_delta(lambda_max: float, b: float, eps: float) -> tuple[float, int]:
    """Step count and width meeting the accuracy for horizon [0, b].

    The interval grid for a = 0: k = ceil(lambda^2 b^2 / (2 eps)) computed
    exactly, delta = b / k; then the a-priori error lambda^2 b^2/(2k) is at
    most eps.  Queries needing more than 2^40 steps are refused.
    """
    if lambda_max <= 0 or b <= 0 or not (0 < eps < 1):
        raise ValueError("need lambda_max > 0, b > 0, eps in (0,1)")
    delta, k, _ = _interval_grid(lambda_max, 0.0, b, eps)
    return delta, k


def discretise(vma: ValidatedMA, delta: float) -> DiscretisedMA:
    """Build the one-step distributions for step width `delta`."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    mu: list[tuple[tuple[int, float], ...]] = []
    for s in range(vma.n):
        if s not in vma.ms:
            mu.append(())
            continue
        stay = math.exp(-vma.exit_rate[s] * delta)
        mass: dict[int, float] = {}
        for t, p in vma.branch[s]:
            mass[t] = mass.get(t, 0.0) + (1.0 - stay) * p
        mass[s] = mass.get(s, 0.0) + stay
        mu.append(tuple(sorted(mass.items())))
    return DiscretisedMA(vma=vma, delta=delta, mu=tuple(mu))


def _stack(values: Sequence[np.ndarray], modes: Sequence[str]) -> np.ndarray:
    """One value vector per mode side by side, the maximum's negated.

    The loop then takes every optimum as a minimum over all copies at once.
    The values are non-negative, so no sum cancels, and a negated copy goes
    through exactly the negated products, sums and optima of a maximising
    run.
    """
    return np.concatenate([v if m == "min" else -v for v, m in zip(values, modes)])


def _unstack(w: np.ndarray, modes: Sequence[str]) -> list[np.ndarray]:
    """The per-mode value vectors of a stacked `w`, signs restored."""
    return [c if m == "min" else -c for c, m in zip(np.split(w, len(modes)), modes)]


def _steps(
    vma: ValidatedMA,
    mu: Sequence[tuple[tuple[int, float], ...]],
    goal: frozenset[int],
    w: np.ndarray,
    k: int,
) -> np.ndarray:
    """One i*-phase on `w`, then k rounds of m-phase and i*-phase, in place.

    `w` is a `_stack` of one value vector per mode; every kernel is tiled
    over the copies, so a round costs one reduction per kernel whatever
    the number of modes.  Goal entries are held; `mu` gives the one-step
    distributions of the Markovian states and is read only when k > 0.
    The m-phase is one kernel over the Markovian non-goal states, each with
    its single row; the i*-phase is one `ZeroTimePropagator` over the
    probabilistic non-goal states.
    """
    copies = len(w) // vma.n
    solved_ps = [s for s in sorted(vma.ps) if s not in goal]
    prop = (
        ZeroTimePropagator(
            vma, frozenset(range(vma.n)) - frozenset(solved_ps), "min"
        ).tile(copies)
        if solved_ps
        else None
    )
    if prop is not None:
        prop.apply(w)
    if k:
        mphase = Kernel(
            (s for s in sorted(vma.ms) if s not in goal), lambda s: (Row(BOT, mu[s]),)
        ).tile(copies, vma.n)
        for _ in range(k):
            # One row per state: the row expectation is the state's value.
            # The right-hand side is evaluated before the write (Jacobi).
            w[mphase.upd] = mphase.expect(w)
            if prop is not None:
                prop.apply(w)
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
    minimum's values are followed by the maximum's.
    """
    if k < 0:
        raise ValueError("step count must be >= 0")
    goal = frozenset(goal)
    modes = _modes(mode)
    start = _indicator(dma.vma.n, goal)
    w = _steps(dma.vma, dma.mu, goal, _stack([start] * len(modes), modes), k)
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
) -> tuple[float, int, int]:
    """Common step width dividing both a and b-a, within the eps budget.

    Phase one contributes a one-sided error lambda^2 (b-a) delta / 2 and
    phase two a two-sided one of lambda^2 a delta / 2 on each flank, so the
    bracket width is bounded by lambda^2 delta (b - a + 2a) / 2; delta is
    chosen to push that below eps.
    """
    fa, fb = Fraction(a), Fraction(b)
    fr = fb - fa
    if fr == 0:
        g = fa
    elif fa == 0:
        g = fr
    else:
        g = Fraction(
            math.gcd(fa.numerator * fr.denominator, fr.numerator * fa.denominator),
            fa.denominator * fr.denominator,
        )
    width_factor = fr + 2 * fa
    m = max(1, math.ceil(g * Fraction(lam) ** 2 * width_factor / (2 * Fraction(eps))))
    delta = g / m
    k_r = int(fr / delta)
    k_a = int(fa / delta)
    if k_r + k_a > STEP_CAP:
        raise StepOverflow(k_r + k_a, STEP_CAP)
    return float(delta), k_r, k_a


def timed_reachability(vma: ValidatedMA, query: TimedQuery) -> BoundedResult:
    """Certified bracket on the interval reachability probability.

    Runs the two-phase scheme of the module docstring on one discretised
    absorbed model.  Phase one's value is a lower bound, and adding its
    discretisation error gives the upper bound; phase two (a > 0 only)
    widens both sides by its own error term.  [0, b] is the case a = 0,
    and [0, 0] is exact zero-time propagation.  Every mode of the query
    runs in the same step loop.
    """
    graph.require_non_zeno(vma)
    goal = frozenset(query.goal)
    modes = _modes(query.mode)
    n = vma.n

    if query.b == 0.0:
        # Without a horizon zero-time propagation is exact.
        start = _indicator(n, goal)
        w = _steps(vma, (), goal, _stack([start] * len(modes), modes), 0)
        return _result(
            modes, [(v.tolist(), v.tolist()) for v in _unstack(w, modes)],
            delta_used=0.0, steps=0, steps_a=0, error_term=0.0,
        )

    lam = vma.lambda_max
    delta, k_r, k_a = _interval_grid(lam, query.a, query.b, query.eps)
    r = query.b - query.a
    dma = discretise(make_absorbing(vma, goal), delta)
    values = np.array(step_bounded_reach(dma, goal, k_r, query.mode)).reshape(len(modes), n)

    # Phase one underestimates by at most err_r; phase two perturbs in both
    # directions by at most err_a (one kernel swap per chunk).
    err_r = min(
        (lam * lam * r * r / (2.0 * k_r)) if k_r else 0.0,
        _exact_violation(lam, r, delta, k_r),
    )
    err_a = 0.0
    if k_a:
        # First-visit semantics: a goal visit strictly before the interval
        # disqualifies the path, so goal values carry nothing into phase two
        # (arrival exactly at the boundary has measure zero), and the
        # probabilistic states are re-propagated against the zeroed values.
        # Phase two reads the one-step distributions of non-goal states
        # only, which the absorbed model shares with the original one.
        values[:, sorted(goal)] = 0.0
        values = _unstack(_steps(dma.vma, dma.mu, goal, _stack(values, modes), k_a), modes)
        err_a = min(
            lam * lam * query.a * query.a / (2.0 * k_a),
            k_a * _exact_violation(lam, delta, delta, 1),
        )
    fuzz = _roundoff_allowance(k_r + k_a)
    return _result(
        modes,
        [
            (
                [min(max(x - err_a - fuzz, 0.0), 1.0) for x in part],
                [min(x + err_r + err_a + fuzz, 1.0) for x in part],
            )
            for part in (v.tolist() for v in values)
        ],
        delta_used=delta, steps=k_r, steps_a=k_a,
        error_term=err_r + 2.0 * err_a + 2.0 * fuzz,
    )
