"""Shared fixtures: model builders, random generators, brute-force oracles.

The brute-force helpers here are deliberately written from scratch (plain
BFS / enumeration / dense algebra) so the production algorithms are
checked against something that shares no code with them.
"""

from __future__ import annotations

import itertools
import random
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from mama import MarkovAutomaton, SspInstance, validate
from mama.model import Kernel

MODELS = Path(__file__).resolve().parent.parent / "models"


def mk(initial, prob=None, markov=None, states=None) -> MarkovAutomaton:
    return MarkovAutomaton.from_parts(initial, prob=prob, markov=markov, states=states)


def load_model(name: str):
    from mama import parse

    text = (MODELS / name).read_text()
    return parse(text)


def family_generators():
    """The benchmark's family generators (`perfbench/gen.py`), by name."""
    import sys

    perfbench = str(MODELS.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import gen
    finally:
        sys.path.remove(perfbench)
    return gen.FAMILIES


def benchmark_families(seed: int):
    """(name, model, goal) of each benchmark family (`perfbench/gen.py`)
    at `seed`, parsed."""
    from mama import parse

    return [(name, *parse(family(seed).to_text())) for name, family in family_generators().items()]


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


def step_rows(dma):
    """Per state of a discretisation its one-step (successor, probability)
    entries, read from its step kernel; () for a probabilistic state."""
    step = dma.step
    rows = [()] * dma.vma.n
    pairs = list(zip(step.succ_idx.tolist(), step.succ_p.tolist()))
    bounds = step.entry_bounds().tolist()
    for s, lo, hi in zip(step.upd.tolist(), bounds, bounds[1:]):
        rows[s] = tuple(pairs[lo:hi])
    return tuple(rows)


def reference_kernel(upd, actions):
    """A `Kernel` filled entry by entry from row objects.

    The states `upd` each own the rows `actions(s)`, objects with `label`
    and `dist`, stably sorted by label; each row owns its entries of
    positive probability.  `acts` keeps the row objects in row order and
    `label` their labels.  The package once built its SSP and long-run
    kernels by this loop, and the array builds are checked against it.
    """
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
        np.array(ps, dtype=np.float64), [act.label for act in acts],
    )
    kernel.row_state = np.array(row_state, dtype=np.int64)
    kernel.acts = acts
    return kernel


def enabled_actions(vma, s):
    """(label, dist) pairs of the induced decision process at s."""
    if s in vma.ms:
        return [("!", vma.branch[s])]
    return list(vma.ma.prob_transitions[s])


class SspRow(NamedTuple):
    label: str
    cost: float
    dist: tuple


def _starts(counts):
    """The run starts of runs of these lengths."""
    counts = np.array(counts, dtype=np.int64)
    return np.cumsum(counts) - counts


def ssp_instance(rows, goal, terminal=(), names=None):
    """An `SspInstance` laid out from row objects, as `reference_kernel`
    lays out a kernel: `rows[s]` are state s's `SspRow`s, stably sorted by
    label, and every entry is kept, so that `check` sees it."""
    names = tuple(names or (f"s{i}" for i in range(len(rows))))
    acts = [act for state in rows for act in sorted(state, key=attrgetter("label"))]
    kernel = Kernel.from_arrays(
        np.arange(len(rows)),
        _starts([len(state) for state in rows]),
        _starts([len(act.dist) for act in acts]),
        np.array([t for act in acts for t, _ in act.dist], dtype=np.int64),
        np.array([p for act in acts for _, p in act.dist], dtype=np.float64),
        [act.label for act in acts],
    )
    cost = np.array([act.cost for act in acts], dtype=np.float64)
    return SspInstance(names, frozenset(goal), tuple(terminal), kernel, cost)


def ssp_rows(ssp):
    """Per state of `ssp` its `SspRow`s read back from its kernel, none for
    a goal state."""
    kernel = ssp.kernel
    pairs = list(zip(kernel.succ_idx.tolist(), kernel.succ_p.tolist()))
    bounds = kernel.entry_bounds().tolist()
    acts = [
        SspRow(name, cost, tuple(pairs[lo:hi]))
        for name, cost, lo, hi in zip(kernel.label, ssp.cost.tolist(), bounds, bounds[1:])
    ]
    starts = kernel.row_bounds().tolist()
    return [
        () if s in ssp.goal else tuple(acts[lo:hi])
        for s, (lo, hi) in enumerate(zip(starts, starts[1:]))
    ]


class TwoCostRow(NamedTuple):
    label: str
    c1: float
    c2: float
    dist: tuple


def two_cost_rows(vma, mec, goal):
    """An end component's rows with the long-run average's two step costs,
    by a per-entry walk: the sorted members and, per member, its kept
    `TwoCostRow`s in label order, successors numbered by their positions
    among the members.  c2 charges the sojourn 1/E(s) of a Markovian
    owner s, and c1 the same if s is a goal."""
    members = sorted(mec.states)
    local = {s: i for i, s in enumerate(members)}
    kept = mec.action_map()
    rows = []
    for s in members:
        sojourn = 1.0 / vma.exit_rate[s] if s in vma.ms else 0.0
        c1 = sojourn if s in goal else 0.0
        rows.append(sorted(
            TwoCostRow(label, c1, sojourn, tuple((local[t], p) for t, p in dist))
            for label, dist in enabled_actions(vma, s) if label in kept[s]
        ))
    return members, rows


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


# ---------------------------------------------------------------------------
# reference loader (test-local): the tuple-based `parse` and `validate` the
# package had before it read models straight into flat blocks.  The flat
# loader is checked against it, field for field and error for error.


class RefMA(NamedTuple):
    """An automaton as per-state tables, the reference loader's form."""

    states: tuple
    initial: int
    prob_transitions: tuple
    markov_edges: tuple

    @property
    def n(self) -> int:
        return len(self.states)


def _ref_total(dist) -> float:
    return sum(p for _, p in dist)


def _ref_intern(index, order, name, lineno):
    from mama import errors
    from mama.model import STATE_ID_RE

    s = index.get(name)
    if s is None:
        if not STATE_ID_RE.match(name):
            raise errors.ParseError(lineno, f"invalid state id '{name}'")
        s = index[name] = len(order)
        order.append(name)
    return s


def _ref_close(blocks, order, owner, label, rows, opened):
    from mama import errors

    if not rows:
        raise errors.ParseError(opened, f"block '{order[owner]} {label}' has no transitions")
    if label != "!":
        total = _ref_total(rows)
        if abs(total - 1.0) > 1e-9:
            raise errors.DistributionNotNormalized(order[owner], label, total, line=opened)
    own = blocks.setdefault(owner, {})
    if label in own:
        if label == "!":
            raise errors.DuplicateMarkovianBlock(order[owner], line=opened)
        raise errors.DuplicateAction(order[owner], label, line=opened)
    own[label] = rows


def reference_parse(text: str):
    """(`RefMA`, goal set) of model text, by the per-block tuple reader."""
    import math

    from mama import errors
    from mama.model import STATE_ID_RE

    lines = text.splitlines()
    ascii_text = text.isascii()
    if "%" in text:
        lines = [line.partition("%")[0] for line in lines]
    order, index, labels = [], {}, set()
    initial, goals, blocks = None, set(), {}
    section, seen_sections = None, set()
    owner, label, rows, opened = 0, "", None, 0
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "*" and section == "#TRANSITIONS":
            if rows is None:
                raise errors.ParseError(lineno, "'*' line outside a transition block")
            try:
                _, name, number = tokens
            except ValueError:
                raise errors.ParseError(lineno, "expected '* <state-id> <number>'") from None
            target = _ref_intern(index, order, name, lineno)
            try:
                if "_" in number or not (ascii_text or number.isascii()):
                    raise ValueError(number)
                value = float(number)
            except ValueError:
                raise errors.ParseError(lineno, f"invalid number '{number}'") from None
            if label == "!":
                if not 0.0 < value < math.inf:
                    raise errors.ParseError(lineno, f"rate {number} must be positive and finite")
            elif not 0.0 < value <= 1.0 + 1e-9:
                raise errors.ParseError(lineno, f"probability {number} must be in (0,1]")
            rows.append((target, value))
            continue
        if head[0] == "#":
            if rows is not None:
                _ref_close(blocks, order, owner, label, rows, opened)
                rows = None
            if head not in ("#INITIAL", "#GOALS", "#TRANSITIONS"):
                raise errors.UnknownSection(lineno, head)
            if head in seen_sections:
                raise errors.ParseError(lineno, f"section {head} appears twice")
            if len(tokens) > 1:
                raise errors.ParseError(lineno, f"unexpected tokens after {head}")
            seen_sections.add(head)
            section = head
        elif section == "#TRANSITIONS":
            if rows is not None:
                _ref_close(blocks, order, owner, label, rows, opened)
                rows = None
            if len(tokens) != 2:
                raise errors.ParseError(lineno, "expected '<state-id> <label>'")
            owner = _ref_intern(index, order, head, lineno)
            label = tokens[1]
            if label != "!" and label not in labels:
                if not STATE_ID_RE.match(label):
                    raise errors.ParseError(lineno, f"invalid action label '{label}'")
                labels.add(label)
            rows, opened = [], lineno
        elif section == "#GOALS":
            for name in tokens:
                goals.add(_ref_intern(index, order, name, lineno))
        elif section == "#INITIAL":
            if len(tokens) != 1 or initial is not None:
                raise errors.ParseError(lineno, "#INITIAL takes exactly one state id")
            initial = _ref_intern(index, order, head, lineno)
        else:
            raise errors.ParseError(lineno, "content before any section header")
    if rows is not None:
        _ref_close(blocks, order, owner, label, rows, opened)
    if "#TRANSITIONS" not in seen_sections:
        raise errors.ParseError(len(lines) + 1, "missing #TRANSITIONS section")
    if initial is None:
        raise errors.ParseError(len(lines) + 1, "missing #INITIAL section")
    n = len(order)
    prob, markov = [()] * n, [()] * n
    for s, own in blocks.items():
        edges = own.pop("!", None)
        if edges is not None:
            markov[s] = tuple(edges)
        prob[s] = tuple((name, tuple(dist)) for name, dist in own.items())
    return RefMA(tuple(order), initial, tuple(prob), tuple(markov)), frozenset(goals)


def _ref_check_structure(ma):
    import math

    from mama import errors

    n = ma.n
    if n == 0:
        raise errors.EmptyModel()
    if not (0 <= ma.initial < n):
        raise errors.UnknownState(ma.initial)
    limit = 1.0 + 1e-9
    totals = []
    for s in range(n):
        sums = []
        labels = set()
        for label, dist in ma.prob_transitions[s]:
            if label in labels:
                raise errors.DuplicateAction(ma.states[s], label)
            labels.add(label)
            for t, p in dist:
                if not (0 <= t < n):
                    raise errors.UnknownState(t)
                if not 0.0 < p <= limit:
                    raise errors.DistributionNotNormalized(ma.states[s], label, p)
            total = _ref_total(dist)
            if abs(total - 1.0) > 1e-9:
                raise errors.DistributionNotNormalized(ma.states[s], label, total)
            sums.append(total)
        totals.append(sums)
        for t, rate in ma.markov_edges[s]:
            if not (0 <= t < n):
                raise errors.UnknownState(t)
            if not rate > 0.0:
                raise errors.NonPositiveRate(ma.states[s], ma.states[t], rate)
            if not rate < math.inf:
                raise errors.NonFiniteRate(ma.states[s], rate)
    return totals


def reference_validate(ma) -> dict:
    """The validated fields of `ma` (anything with per-state tables) by the
    per-state loop, with the kernel of all states as per-entry lists."""
    import math

    from mama import errors

    totals = _ref_check_structure(ma)
    n = ma.n
    warnings, ms, ps = [], [], []
    prob, markov = [()] * n, [()] * n
    exit_rate, branch = [0.0] * n, [()] * n
    for s in range(n):
        pts, edges = ma.prob_transitions[s], ma.markov_edges[s]
        if pts:
            ps.append(s)
            prob[s] = tuple(
                (label, tuple((t, p / total) for t, p in dist))
                for (label, dist), total in zip(pts, totals[s])
            )
            if edges:
                warnings.append(
                    f"state '{ma.states[s]}': maximal progress drops "
                    f"{len(edges)} Markovian edge(s)"
                )
            continue
        if not edges:
            edges = ((s, 1.0),)
        ms.append(s)
        markov[s] = edges
        rates = {}
        for t, r in edges:
            rates[t] = rates.get(t, 0.0) + r
        total = sum(rates.values())
        if not math.isfinite(total):
            raise errors.NonFiniteRate(ma.states[s], total)
        exit_rate[s] = total
        branch[s] = tuple((t, r / total) for t, r in sorted(rates.items()))
    seen = [False] * n
    seen[ma.initial] = True
    stack = [ma.initial]
    while stack:
        s = stack.pop()
        succ = [t for _, dist in prob[s] for t, _ in dist] + [t for t, _ in markov[s]]
        for t in succ:
            if not seen[t]:
                seen[t] = True
                stack.append(t)
    unreachable = [s for s in range(n) if not seen[s]]
    warnings += [f"state '{ma.states[s]}' is unreachable from the initial state"
                 for s in unreachable]
    row_start, entry_start, succ, ps_, labels = [], [], [], [], []
    for s in range(n):
        row_start.append(len(labels))
        rows = sorted(prob[s], key=lambda row: row[0]) if s not in ms else (("!", branch[s]),)
        for label, dist in rows:
            labels.append(label)
            entry_start.append(len(succ))
            for t, p in dist:
                succ.append(t)
                ps_.append(p)
    kernel = Kernel.from_arrays(
        np.arange(n), *(np.array(a, dtype=np.int64) for a in (row_start, entry_start, succ)),
        np.array(ps_, dtype=np.float64), labels,
    )
    return {
        "ma": RefMA(ma.states, ma.initial, tuple(prob), tuple(markov)),
        "ms": frozenset(ms),
        "ps": frozenset(ps),
        "exit_rate": tuple(exit_rate),
        "branch": tuple(branch),
        "lambda_max": max(exit_rate, default=0.0),
        "unreachable": frozenset(unreachable),
        "warnings": tuple(warnings),
        "kernel": kernel,
    }
