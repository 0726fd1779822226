"""Shared fixtures: model builders, random generators, brute-force oracles.

The brute-force helpers here are deliberately written from scratch (plain
BFS / enumeration / dense algebra) so the production algorithms are
checked against something that shares no code with them.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from mama import MarkovAutomaton, validate

MODELS = Path(__file__).resolve().parent.parent / "models"


def mk(initial, prob=None, markov=None, states=None) -> MarkovAutomaton:
    return MarkovAutomaton.from_parts(initial, prob=prob, markov=markov, states=states)


def load_model(name: str):
    from mama import parse

    text = (MODELS / name).read_text()
    return parse(text)


@pytest.fixture
def two_mecs():
    ma, goal = load_model("two_mecs.ma")
    return validate(ma), goal


# ---------------------------------------------------------------------------
# random model generators (seeded, deterministic)


def random_ctmc(rng: random.Random, max_states=50, rate_lo=0.1, rate_hi=10.0):
    n = rng.randint(2, max_states)
    names = [f"s{i}" for i in range(n)]
    markov = {}
    for i in range(n):
        degree = rng.randint(1, 3)
        targets = rng.sample(range(n), min(degree, n))
        markov[names[i]] = [
            (names[t], rng.uniform(rate_lo, rate_hi)) for t in targets
        ]
    ma = mk("s0", markov=markov, states=names)
    goal = frozenset(rng.sample(range(n), rng.randint(1, max(1, n // 5))))
    return validate(ma), goal


def random_ma(rng: random.Random, max_states=8, max_actions=2):
    """Random non-Zeno Markov automaton with small action sets."""
    from mama import check_non_zeno

    while True:
        n = rng.randint(2, max_states)
        names = [f"s{i}" for i in range(n)]
        prob = {}
        markov = {}
        for i in range(n):
            if rng.random() < 0.5:
                degree = rng.randint(1, 3)
                targets = rng.sample(range(n), min(degree, n))
                markov[names[i]] = [
                    (names[t], rng.uniform(0.1, 10.0)) for t in targets
                ]
            else:
                blocks = []
                for a in range(rng.randint(1, max_actions)):
                    support = rng.sample(range(n), rng.randint(1, min(3, n)))
                    weights = [rng.uniform(0.1, 1.0) for _ in support]
                    total = sum(weights)
                    blocks.append(
                        (
                            f"a{a}",
                            [(names[t], w / total) for t, w in zip(support, weights)],
                        )
                    )
                prob[names[i]] = blocks
        vma = validate(mk("s0", prob=prob, markov=markov, states=names))
        if check_non_zeno(vma) is None:
            goal = frozenset(rng.sample(range(n), rng.randint(1, max(1, n // 2))))
            return vma, goal


# ---------------------------------------------------------------------------
# brute-force oracles (test-local)


def reference_kernel(upd, actions):
    """A `Kernel` filled entry by entry from row objects.

    The states `upd` each own the rows `actions(s)`, objects with `label`
    and `dist`, stably sorted by label; each row owns its entries of
    positive probability.  `acts` keeps the row objects in row order and
    `label` their labels.  The package once built its SSP and long-run
    kernels by this loop, and the array builds are checked against it.
    """
    from operator import attrgetter

    from mama.mdpsolve import Kernel

    upd = list(upd)
    acts, row_state, starts, succ_starts, idx, ps = [], [], [], [], [], []
    for s in upd:
        starts.append(len(acts))
        for act in sorted(actions(s), key=attrgetter("label")):
            acts.append(act)
            row_state.append(s)
            succ_starts.append(len(idx))
            for t, p in act.dist:
                if p > 0.0:
                    idx.append(t)
                    ps.append(p)
    kernel = Kernel.from_arrays(
        *(np.array(a, dtype=np.int64) for a in (upd, starts, succ_starts, idx)),
        np.array(ps, dtype=np.float64),
    )
    kernel.row_state = np.array(row_state, dtype=np.int64)
    kernel.acts = acts
    kernel.label = [act.label for act in acts]
    return kernel


def enabled_actions(vma, s):
    """(label, dist) pairs of the induced decision process at s."""
    if s in vma.ms:
        return [("!", vma.branch[s])]
    return list(vma.ma.prob_transitions[s])


def all_state_policies(vma):
    ps = sorted(vma.ps)
    label_sets = [sorted(l for l, _ in vma.ma.prob_transitions[s]) for s in ps]
    for combo in itertools.product(*label_sets):
        yield dict(zip(ps, combo))


def induced_edges(vma, policy):
    """Successor map of the chain a policy induces."""
    succ = {}
    for s in range(vma.n):
        if s in vma.ms:
            succ[s] = sorted({t for t, _ in vma.branch[s]})
        else:
            dist = dict(vma.ma.prob_transitions[s])[policy[s]]
            succ[s] = sorted({t for t, _ in dist})
    return succ


def _bfs(succ, sources):
    seen = set(sources)
    queue = list(sources)
    while queue:
        s = queue.pop()
        for t in succ[s]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def policy_certain_set(vma, policy, goal):
    """States from which the induced chain hits the goal with probability 1."""
    succ = induced_edges(vma, policy)
    n = vma.n
    # backward reachability of the goal
    can_reach = set(goal)
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if s not in can_reach and any(t in can_reach for t in succ[s]):
                can_reach.add(s)
                changed = True
    doomed = set(range(n)) - can_reach
    spread = set(doomed)
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if s in spread or s in goal:
                continue
            if any(t in spread for t in succ[s]):
                spread.add(s)
                changed = True
    return frozenset(range(n)) - frozenset(spread)


def brute_almost_sure(vma, goal, mode):
    result = None
    for policy in all_state_policies(vma):
        certain = policy_certain_set(vma, policy, goal)
        if result is None:
            result = set(certain)
        elif mode == "max":
            result |= certain
        else:
            result &= certain
    return frozenset(result if result is not None else set())


def brute_sccs(vma):
    """Pairwise-reachability SCCs of the union graph."""
    succ = {
        s: sorted(
            {t for _, dist in enabled_actions(vma, s) for t, _ in dist}
        )
        for s in range(vma.n)
    }
    reach = {s: _bfs(succ, [s]) for s in range(vma.n)}
    comps = []
    assigned = set()
    for s in range(vma.n):
        if s in assigned:
            continue
        comp = {t for t in reach[s] if s in reach[t]}
        comp.add(s)
        assigned |= comp
        comps.append(frozenset(comp))
    comps.sort(key=min)
    return comps


def brute_end_components(vma):
    """Every (states, kept-actions) pair meeting the end-component rules."""
    n = vma.n
    found = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            members = set(subset)
            ok = True
            per_state_options = []
            for s in subset:
                opts = []
                for label, dist in enabled_actions(vma, s):
                    if all(t in members for t, _ in dist):
                        opts.append(label)
                if s in vma.ms:
                    if opts != ["!"]:
                        ok = False
                        break
                    per_state_options.append([("!",)])
                else:
                    if not opts:
                        ok = False
                        break
                    choices = [
                        combo
                        for r in range(1, len(opts) + 1)
                        for combo in itertools.combinations(sorted(opts), r)
                    ]
                    per_state_options.append(choices)
            if not ok:
                continue
            for assignment in itertools.product(*per_state_options):
                kept = {s: frozenset(labels) for s, labels in zip(subset, assignment)}
                succ = {
                    s: sorted(
                        {
                            t
                            for label, dist in enabled_actions(vma, s)
                            if label in kept[s]
                            for t, _ in dist
                        }
                    )
                    for s in subset
                }
                connected = all(
                    all(t in _bfs(succ, [s]) for t in subset) for s in subset
                )
                if connected:
                    found.append((frozenset(subset), kept))
    maximal = []
    for states, kept in found:
        contained = any(
            states <= other_states
            and all(kept[s] <= other_kept[s] for s in states)
            and (states, kept) != (other_states, other_kept)
            for other_states, other_kept in found
        )
        if not contained:
            maximal.append((states, kept))
    return maximal


def chain_absorption_hitting(vma, policy, goal):
    """Expected hitting time of the induced chain by dense algebra."""
    import math

    certain = policy_certain_set(vma, policy, goal)
    values = [math.inf] * vma.n
    for g in goal:
        values[g] = 0.0
    solve_states = [s for s in certain if s not in goal]
    if not solve_states:
        return values
    pos = {s: i for i, s in enumerate(solve_states)}
    m = len(solve_states)
    a = np.eye(m)
    rhs = np.zeros(m)
    for s in solve_states:
        if s in vma.ms:
            rhs[pos[s]] = 1.0 / vma.exit_rate[s]
            dist = vma.branch[s]
        else:
            dist = dict(vma.ma.prob_transitions[s])[policy[s]]
        for t, p in dist:
            if t in pos:
                a[pos[s], pos[t]] -= p
    x = np.linalg.solve(a, rhs)
    for s in solve_states:
        values[s] = float(x[pos[s]])
    return values
