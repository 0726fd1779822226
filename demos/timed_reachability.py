"""Timed reachability with certified error brackets.

A [0, b] query is first tried by uniformisation.  The model is
uniformised at its largest exit rate lambda, so the number of Markovian
jumps up to b is Poisson(lambda b), and two scheduler bounds bracket the
value: a scheduler that knows the number of jumps in advance does at
least as well as any real one, and a scheduler that only counts the jumps
so far is one of them.  The Poisson weights are cut where their right
tail is at most eps / 8, at K jumps, so the attempt takes 2K + 1 rounds,
about 2 lambda b plus a term in sqrt(lambda b).  When both bounds meet
within eps they are the answer.

Otherwise, and for intervals [a, b] with a > 0, continuous time is
discretised into steps of width delta so that a step carries at most one
Markovian jump with high probability; the step count follows from the
requested accuracy through k = ceil(lambda^2 b^2 / (2 eps)).  The
discretised value is a lower bound and the one-jump violation probability
bounds the gap, so every query returns a bracket of width at most eps
around the true probability.
"""

import math
from pathlib import Path

from mama import TimedQuery, choose_delta, oracle, parse, timed_reachability, validate

MODELS = Path(__file__).resolve().parent.parent / "models"

# ---------------------------------------------------------------------------
# Step-count selection: rate bound 1, horizon 1, accuracy 0.005 needs
# exactly 100 steps, and the realized one-jump bound is ~0.00495.

delta, k = choose_delta(1.0, 1.0, 0.005)
term = 1.0 - math.exp(-1.0) * (1.0 + delta) ** k
print(f"delta={delta} k={k} realized bound={term:.5f}")

# ---------------------------------------------------------------------------
# Two unit-rate stages, horizon 1: the true value is the Erlang-2 CDF,
# 1 - 2/e.  The bracket straddles it with width <= eps.  A chain has no
# choices, so its two uniformisation bounds agree, and a handful of
# rounds replaces the k discretisation steps.

ma, goal = parse((MODELS / "erlang2.ma").read_text())
vma = validate(ma)
for eps in (1e-2, 1e-3, 1e-4):
    res = timed_reachability(vma, TimedQuery(goal=goal, b=1.0, eps=eps, mode="max"))
    true = 1.0 - 2.0 * math.exp(-1.0)
    _, k = choose_delta(vma.lambda_max, 1.0, eps)
    print(
        f"eps={eps:g}: [{res.lower[0]:.7f}, {res.upper[0]:.7f}] "
        f"true={true:.7f} steps={res.steps} (discretisation: {k})"
    )

# ---------------------------------------------------------------------------
# The independent uniformization engine agrees on any pure chain.

reference = oracle.ctmc_transient(vma, goal, 1.0)
print("uniformization reference:", reference[0])

# ---------------------------------------------------------------------------
# Intervals with a positive lower bound ask when the FIRST goal visit
# falls inside [a, b].  For a single exponential jump the answer is
# F(b) - F(a) with F the exponential distribution function.  The two
# phases, b - a and then a, each step on a grid of their own, so decimal
# endpoints such as 0.1 and 0.3 need no common step width.

single, sgoal = parse((MODELS / "single_exp.ma").read_text())
svma = validate(single)
for a, b in ((1.0, 4.0), (0.5, 1.0), (0.1, 0.3)):
    res = timed_reachability(svma, TimedQuery(goal=sgoal, a=a, b=b, eps=1e-3, mode="max"))
    true = math.exp(-a) - math.exp(-b)
    print(
        f"first jump in [{a},{b}]: [{res.lower[0]:.6f}, {res.upper[0]:.6f}] "
        f"true={true:.6f} (steps {res.steps}+{res.steps_a})"
    )

# ---------------------------------------------------------------------------
# With nondeterminism the min and max brackets split: choosing the fast
# branch reaches the goal much sooner than the slow one.

from mama import MarkovAutomaton

race = validate(
    MarkovAutomaton.from_parts(
        "p",
        prob={"p": [("fast", [("m1", 1.0)]), ("slow", [("m2", 1.0)])]},
        markov={"m1": [("g", 10.0)], "m2": [("g", 0.1)]},
    )
)
rgoal = {race.index_of("g")}
hi = timed_reachability(race, TimedQuery(goal=rgoal, b=0.5, eps=1e-3, mode="max"))
lo = timed_reachability(race, TimedQuery(goal=rgoal, b=0.5, eps=1e-3, mode="min"))
p = race.index_of("p")
print(f"\nmax (fast branch): [{hi.lower[p]:.6f}, {hi.upper[p]:.6f}]")
print(f"min (slow branch): [{lo.lower[p]:.6f}, {lo.upper[p]:.6f}]")

# ---------------------------------------------------------------------------
# When the best choice depends on how much time is left, the two
# uniformisation bounds stay apart: here a risky one-jump branch beats a
# sure two-jump one only when few jumps remain.  Raising the rate narrows
# them (0.163 at lambda_max, 0.014 at 8 lambda_max), but the attempt that
# would answer does not fit below k.  The four attempts' 134 steps are
# spent and the discretisation answers, so the step count is k + 134.

gamble = validate(
    MarkovAutomaton.from_parts(
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
ggoal = {gamble.index_of("g")}
res = timed_reachability(gamble, TimedQuery(goal=ggoal, b=0.2, eps=1e-2, mode="max"))
_, k = choose_delta(gamble.lambda_max, 0.2, 1e-2)
p = gamble.index_of("p")
print(f"max (risky or sure): [{res.lower[p]:.6f}, {res.upper[p]:.6f}] "
      f"steps={res.steps} (discretisation: {k})")
