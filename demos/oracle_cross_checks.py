"""The independent reference engines.

Every production analysis has a second, structurally different route to
the same number: dense linear algebra for fixed chains, exhaustive policy
enumeration for optima, a literal linear program for long-run ratios,
uniformization for transient probabilities, and Monte Carlo simulation as
a statistical sanity net.  The CLI flag --verify runs these on small
models; this script shows them head to head.
"""

from pathlib import Path

from mama import (
    MarkovAutomaton,
    expected_time,
    lra,
    mecs,
    oracle,
    parse,
    validate,
)

MODELS = Path(__file__).resolve().parent.parent / "models"

ma, goal = parse((MODELS / "two_mecs.ma").read_text())
vma = validate(ma)

# ---------------------------------------------------------------------------
# Expected time: value iteration vs exhaustive policy enumeration.

for mode in ("min", "max"):
    vi = expected_time(vma, goal, mode, tol=1e-12).values[vma.initial]
    brute = oracle.enumerate_policies(vma, goal, "et", mode)[vma.initial]
    print(f"eT {mode}: value iteration {vi:.10f} vs enumeration {brute:.10f}")

# ---------------------------------------------------------------------------
# Long-run average: quotient pipeline vs enumeration vs the ratio LP.

for mode in ("min", "max"):
    pipeline = lra(vma, goal, mode, tol=1e-9).values[vma.initial]
    brute = oracle.enumerate_policies(vma, goal, "lra", mode)[vma.initial]
    print(f"LRA {mode}: pipeline {pipeline:.10f} vs enumeration {brute:.10f}")

first = mecs(vma)[0]
print("ratio LP on the first component:", oracle.ratio_lp(vma, first, goal, "max"))

# ---------------------------------------------------------------------------
# Steady states: the embedded-chain route and a closed form.

two_state = validate(
    MarkovAutomaton.from_parts("a", markov={"a": [("b", 0.7)], "b": [("a", 1.9)]})
)
pi = oracle.ctmc_steady_state(two_state)
print("\ntwo-state steady state:", pi, "(closed form: 1.9/2.6, 0.7/2.6)")

# ---------------------------------------------------------------------------
# Simulation: reproducible runs, normal-approximation confidence interval.

policy = {vma.index_of("s1"): "alpha", vma.index_of("s3"): "beta"}
sim = oracle.simulate(vma, policy, "lra", goal, n_runs=200, seed=11, horizon=1e4)
print(
    f"\nsimulated LRA under the committing policy: {sim.mean:.4f} "
    f"95% CI [{sim.ci_low:.4f}, {sim.ci_high:.4f}] (exact 5/6 = 0.8333...)"
)

exp_model = validate(MarkovAutomaton.from_parts("s", markov={"s": [("g", 2.0)]}))
sim = oracle.simulate(exp_model, {}, "et", {exp_model.index_of("g")}, n_runs=20000, seed=42)
print(f"simulated mean of Exp(2): {sim.mean:.4f} CI [{sim.ci_low:.4f}, {sim.ci_high:.4f}]")
