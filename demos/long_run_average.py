"""Long-run average fraction of time in a goal set.

Long-run behaviour lives inside the maximal end components.  The analysis
decomposes the model, solves a two-cost ratio problem inside each
component (time in goal states over total time, on the embedded jump
chain), and combines the component values through a quotient in which
each component becomes a gate plus an absorbing sink.
"""

from pathlib import Path

from mama import (
    build_ssp_lra,
    lra,
    lra_unichain,
    mecs,
    oracle,
    parse,
    validate,
)

MODELS = Path(__file__).resolve().parent.parent / "models"

ma, goal = parse((MODELS / "two_mecs.ma").read_text())
vma = validate(ma)
print("goal:", sorted(vma.name(g) for g in goal))

# ---------------------------------------------------------------------------
# Step 1: the maximal end components.  s3's alpha escapes the first
# component, so only beta is kept inside it; s5 is absorbing on its own.

decomposition = mecs(vma)
for i, mec in enumerate(decomposition, start=1):
    kept = {vma.name(s): sorted(a) for s, a in mec.actions}
    print(f"component {i}: states={sorted(vma.name(s) for s in mec.states)} kept={kept}")

# ---------------------------------------------------------------------------
# Step 2: the optimal ratio inside each component.  The first component is
# forced (beta only); its embedded chain visits s1,s2,s3,s4 with
# stationary weights 0.3125, 0.3125, 0.1875, 0.1875, and only the
# Markovian states s2 (rate 1) and s4 (rate 3) spend time, so the goal
# fraction is 0.3125 / (0.3125 + 0.1875/3) = 5/6.

for i, mec in enumerate(decomposition, start=1):
    value, policy, _ = lra_unichain(vma, mec, goal & vma.ms, "max", tol=1e-9)
    print(f"component {i}: ratio {value:.9f} witness {policy}")
    if mec.states & vma.ms:
        print(f"  reference LP gives {oracle.ratio_lp(vma, mec, goal, 'max'):.9f}")

# ---------------------------------------------------------------------------
# Step 3: the quotient.  Gates carry the escaping transitions, sinks carry
# the component values as terminal costs; everything else costs nothing.
# The instance holds its rows as one kernel: per state its first row, per
# row its first entry, the entries' successors and probabilities, and the
# rows' labels; the bounds give the starts with their totals appended.
# The sinks have no rows.

inst = build_ssp_lra(vma, decomposition, [5.0 / 6.0, 0.0])
kernel = inst.kernel
row_start, entry_start = kernel.row_bounds(), kernel.entry_bounds()
print("\nquotient states:", inst.names)
for s, name in enumerate(inst.names):
    for r in range(row_start[s], row_start[s + 1]):
        entries = range(entry_start[r], entry_start[r + 1])
        targets = {inst.names[kernel.succ_idx[e]]: kernel.succ_p[e].item() for e in entries}
        print(f"  {name} --{kernel.label[r]}--> {targets}")

# ---------------------------------------------------------------------------
# End to end: maximizing commits to the first component (5/6), minimizing
# escapes through alpha into the absorbing second component (0).

hi = lra(vma, goal, "max", tol=1e-9)
lo = lra(vma, goal, "min", tol=1e-9)
print("\nLRA max from s0:", hi.values[vma.initial])
print("LRA min from s0:", lo.values[vma.initial])
print("max decisions:", hi.policy.decisions, "choices:", hi.policy.flat())
print("min decisions:", lo.policy.decisions, "choices:", lo.policy.flat())

# The flat witness policies are honest: evaluating them exactly (via the
# stationary distribution of the induced chain) reproduces the values.

for res in (hi, lo):
    exact = oracle.lra_fixed_policy(vma, goal, res.policy.flat())
    print("witness evaluates to", exact[vma.initial])
