"""Timed interval reachability probabilities with certified error.

Continuous time is sliced into steps of length delta, small enough that a
step carries at most one Markovian jump with high probability.  On the
resulting discretised model a value iteration alternates m-phases (one
discretised Markovian step) with i*-phases (optimal zero-time propagation
through probabilistic states).  Both phases run on `mdpsolve.Kernel`:
the m-phase is one kernel over the Markovian states, each with its single
discretised row, and the i*-phase applies one kernel per zero-time level,
lowest level first, so a round is a fixed number of numpy reductions with
no per-state Python loop.  The step count k is chosen from the exit
rate bound so that the discretisation error lambda^2 b^2 / (2k) stays
below the requested accuracy; the reported upper bound uses the tighter
of that bound and the exact one-jump-per-step violation probability
1 - e^(-lambda b) (1 + lambda delta)^k.

Intervals with positive lower bound a are handled by a two-phase scheme
(an engineering extension; see docs/format.md): phase one analyses the
goal-absorbing model on horizon b-a, phase two continues on the
unmodified model for horizon a with goal membership no longer credited,
so the result is the probability that the FIRST visit to the goal set
falls inside [a, b].  For a = 0 both readings coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import graph
from .errors import StepOverflow
from .mdpsolve import Kernel, Row, ZeroTimePropagator
from .model import BOT, ValidatedMA, make_absorbing

STEP_CAP = 2**40


@dataclass(frozen=True)
class TimedQuery:
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
        if self.mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {self.mode!r}")


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
    lower: list[float]
    upper: list[float]
    delta_used: float
    steps: int
    steps_a: int = 0
    error_term: float = 0.0


def choose_delta(lambda_max: float, b: float, eps: float) -> tuple[float, int]:
    """Step count and width meeting the accuracy for horizon [0, b].

    k = ceil(lambda^2 b^2 / (2 eps)) computed exactly, delta = b / k; then
    the a-priori error lambda^2 b^2/(2k) is at most eps.  Queries needing
    more than 2^40 steps are refused.
    """
    if lambda_max <= 0 or b <= 0 or not (0 < eps < 1):
        raise ValueError("need lambda_max > 0, b > 0, eps in (0,1)")
    ratio = (
        Fraction(lambda_max) ** 2 * Fraction(b) ** 2 / (2 * Fraction(eps))
    )
    k = max(1, math.ceil(ratio))
    if k > STEP_CAP:
        raise StepOverflow(k, STEP_CAP)
    return b / k, k


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


def _steps(
    vma: ValidatedMA,
    mu: Sequence[tuple[tuple[int, float], ...]],
    goal: frozenset[int],
    v: np.ndarray,
    k: int,
    mode: str,
) -> list[float]:
    """One i*-phase on `v`, then k rounds of m-phase and i*-phase.

    Goal entries are held; `mu` gives the one-step distributions of the
    Markovian states and is read only when k > 0.  The m-phase is one
    kernel over the Markovian non-goal states, each with its single row;
    the i*-phase is one `ZeroTimePropagator` over the probabilistic
    non-goal states.
    """
    solved_ps = [s for s in sorted(vma.ps) if s not in goal]
    prop = (
        ZeroTimePropagator(vma, frozenset(range(vma.n)) - frozenset(solved_ps), mode)
        if solved_ps
        else None
    )
    if prop is not None:
        prop.apply(v)
    if k:
        mphase = Kernel(
            (s for s in sorted(vma.ms) if s not in goal), lambda s: (Row(BOT, mu[s]),)
        )
        for _ in range(k):
            # One row per state: the row expectation is the state's value.
            nxt = v.copy()
            nxt[mphase.upd] = mphase.expect(v)
            v = nxt
            if prop is not None:
                prop.apply(v)
    return [float(x) for x in v]


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
    in k.
    """
    if k < 0:
        raise ValueError("step count must be >= 0")
    goal = frozenset(goal)
    return _steps(dma.vma, dma.mu, goal, _indicator(dma.vma.n, goal), k, mode)


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

    For [0, b] the discretised value is a lower bound and adding the
    discretisation error gives the upper bound.  For a > 0 the two-phase
    scheme described in the module docstring is used and the per-phase
    error terms are summed.
    """
    graph.require_non_zeno(vma)
    goal = frozenset(query.goal)
    mode = query.mode

    lam = vma.lambda_max
    if query.b == 0.0 or lam <= 0.0:
        # Without a horizon, or without any Markovian state to wait in
        # (non-Zeno models always end in Markovian states, so that only
        # happens when every Markovian state is unreachable), zero-time
        # propagation is exact.
        v = _steps(vma, (), goal, _indicator(vma.n, goal), 0, mode)
        return BoundedResult(
            lower=list(v), upper=list(v), delta_used=0.0, steps=0, steps_a=0,
            error_term=0.0,
        )

    absorbed = make_absorbing(vma, goal)

    if query.a == 0.0:
        delta, k = choose_delta(lam, query.b, query.eps)
        computed = step_bounded_reach(discretise(absorbed, delta), goal, k, mode)
        relaxed = lam * lam * query.b * query.b / (2.0 * k)
        err = min(relaxed, _exact_violation(lam, query.b, delta, k))
        fuzz = _roundoff_allowance(k)
        lower = [min(max(x - fuzz, 0.0), 1.0) for x in computed]
        upper = [min(x + err + fuzz, 1.0) for x in computed]
        return BoundedResult(
            lower=lower, upper=upper, delta_used=delta, steps=k, steps_a=0,
            error_term=err + 2.0 * fuzz,
        )

    delta, k_r, k_a = _interval_grid(lam, query.a, query.b, query.eps)
    r = query.b - query.a
    phase1 = step_bounded_reach(discretise(absorbed, delta), goal, k_r, mode)

    # First-visit semantics: a goal visit strictly before the interval
    # disqualifies the path, so goal values carry nothing into phase two
    # (arrival exactly at the boundary has measure zero), and the
    # probabilistic states are re-propagated against the zeroed values.
    v = np.array(phase1, dtype=np.float64)
    v[sorted(goal)] = 0.0
    v = _steps(vma, discretise(vma, delta).mu, goal, v, k_a, mode)

    # Phase one underestimates by at most err_r; phase two perturbs in both
    # directions by at most err_a (one kernel swap per chunk).
    err_r = min(
        (lam * lam * r * r / (2.0 * k_r)) if k_r else 0.0,
        _exact_violation(lam, r, delta, k_r),
    )
    err_a = min(
        lam * lam * query.a * query.a / (2.0 * k_a),
        k_a * _exact_violation(lam, delta, delta, 1),
    )
    fuzz = _roundoff_allowance(k_r + k_a)
    lower = [min(max(x - err_a - fuzz, 0.0), 1.0) for x in v]
    upper = [min(x + err_r + err_a + fuzz, 1.0) for x in v]
    return BoundedResult(
        lower=lower, upper=upper, delta_used=delta, steps=k_r, steps_a=k_a,
        error_term=err_r + 2.0 * err_a + 2.0 * fuzz,
    )
