"""Qualitative graph analyses on validated Markov automata.

Everything here ignores numeric values and only looks at the support of
the transition structure: strongly connected components, detection of
Zeno behaviour (reachable cycles of instantaneous transitions), maximal
end components, and almost-sure reachability in the induced decision
process.  All outputs are deterministically ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping

import numpy as np

from .errors import ZenoModelError
from .model import ValidatedMA, _offsets, _once, _runs, check_goal, check_mode, flat


@dataclass(frozen=True)
class ZenoWitness:
    """A reachable set of probabilistic states closed under a zero-time cycle."""

    states: frozenset[int]


@dataclass(frozen=True, eq=True)
class Mec:
    """A maximal end component.

    `states` is the component's state set and `actions` maps every member
    to the nonempty set of action labels kept inside the component
    (Markovian states keep the pseudo-action `BOT`).  The kept sub-model is
    strongly connected and closed: kept probabilistic actions and all
    Markovian moves stay inside `states`.
    """

    states: frozenset[int]
    actions: tuple[tuple[int, frozenset[str]], ...]

    def action_map(self) -> dict[int, frozenset[str]]:
        return dict(self.actions)


def _tarjan(nodes: Iterable[int], succ) -> list[list[int]]:
    """Iterative Tarjan; components in a deterministic order."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    comps: list[list[int]] = []

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    comps.sort(key=min)
    return comps


class ActionRows:
    """The action rows of every state, and the rows that enter each state.

    The rows of state s are `of[s]`, its rows of the model's kernel
    (`model.flat`), in label order.  `owner[r]`, `label[r]` and
    `support[r]` are row r's state, label and distinct successors;
    `preds[t]` lists the rows whose support holds t, in ascending order.
    Every qualitative pass here reads this one structure, built once per
    model by `action_rows`; the zero-time levelling and the Zeno verdict
    peel the kernel itself, and read this only to name a cycle.
    """

    def __init__(self, vma: ValidatedMA):
        f = flat(vma)
        self.n = n = vma.n
        ends = np.append(f.starts[1:], len(f.succ_starts))
        self.of = list(map(range, f.starts.tolist(), ends.tolist()))
        self.owner = f.row_state.tolist()
        self.label = f.label
        entry_row = f.entry_row()
        # The first entry of each (row, successor) pair, in entry order.
        first = np.sort(np.unique(entry_row * n + f.succ_idx, return_index=True)[1])
        row, succ = entry_row[first], f.succ_idx[first]
        self.support = _cut(succ, np.bincount(row, minlength=len(f.label)))
        # A stable sort keeps the rows of each successor ascending.
        self.preds = _cut(row[np.argsort(succ, kind="stable")], np.bincount(succ, minlength=n))

    def successors(self, s: int) -> list[int]:
        """The successors of `s` over all its rows, repeats included."""
        return [t for r in self.of[s] for t in self.support[r]]

    def inside(
        self, member: list[bool], usable: list[bool]
    ) -> tuple[list[bool], list[int]]:
        """Per row whether it is usable and its support lies in `member`,
        and per state the number of its rows that are."""
        inside = [
            u and all(member[t] for t in targets)
            for u, targets in zip(usable, self.support)
        ]
        kept = [0] * self.n
        for r, s in enumerate(self.owner):
            kept[s] += inside[r]
        return inside, kept

    def peel(
        self, dropped: list[int], member: list[bool], inside: list[bool], kept: list[int]
    ) -> None:
        """Take `dropped` out of `member`, then every state left with no
        row inside, until none is left; `inside` and `kept` follow."""
        for u in dropped:
            member[u] = False
        queue = list(dropped)
        while queue:
            u = queue.pop()
            for r in self.preds[u]:
                if inside[r]:
                    inside[r] = False
                    s = self.owner[r]
                    kept[s] -= 1
                    if not kept[s] and member[s]:
                        member[s] = False
                        queue.append(s)

    def backward(self, sources: Iterable[int], usable: list[bool]) -> list[int]:
        """Per state the fewest `usable` rows on a path to `sources`, by
        breadth-first search along predecessors; -1 where there is none."""
        distance = [-1] * self.n
        frontier = list(sources)
        for s in frontier:
            distance[s] = 0
        while frontier:
            nxt = []
            for t in frontier:
                for r in self.preds[t]:
                    s = self.owner[r]
                    if usable[r] and distance[s] < 0:
                        distance[s] = distance[t] + 1
                        nxt.append(s)
            frontier = nxt
        return distance


def _cut(items: np.ndarray, counts: np.ndarray) -> list[list[int]]:
    """`items` cut into consecutive lists of these lengths."""
    items, ends = items.tolist(), np.cumsum(counts).tolist()
    return [items[a:b] for a, b in zip([0] + ends, ends)]


def action_rows(vma: ValidatedMA) -> ActionRows:
    """The model's `ActionRows`, built on first use and stored on it."""
    return _once(vma, "rows", ActionRows)


def sccs(vma: ValidatedMA) -> list[frozenset[int]]:
    """Strongly connected components of the union graph.

    The union graph has an edge for every Markovian move and for every
    probabilistic successor with positive probability.  Components are
    returned sorted by their smallest member index.
    """
    comps = _tarjan(range(vma.n), action_rows(vma).successors)
    return [frozenset(c) for c in comps]


def check_non_zeno(vma: ValidatedMA) -> ZenoWitness | None:
    """Search for a reachable cycle of probabilistic transitions.

    Returns the first such component (by smallest state index) or None if
    the model is non-Zeno.  A singleton probabilistic state only counts
    when some action loops back to it.  The reachable probabilistic states
    are peeled as by `zero_time_levels`; only when the peeling gets stuck
    does a Tarjan pass name the witness.  The verdict is computed once per
    model and then read back.
    """
    return _once(vma, "zeno", _zeno_witness)


def _zeno_witness(vma: ValidatedMA) -> ZenoWitness | None:
    stuck = zero_time_stuck(vma, vma.ps - vma.unreachable)
    if not stuck.any():
        return None
    return ZenoWitness(frozenset(zero_time_cycles(action_rows(vma), stuck.tolist())[0]))


def zero_time_stuck(vma: ValidatedMA, states: Iterable[int]) -> np.ndarray:
    """The mask of the `states` that the peel of `zero_time_levels` over
    them never places: those on a cycle among them and those leading into
    one."""
    member = np.zeros(vma.n, dtype=bool)
    member[list(states)] = True
    return zero_time_levels(vma, member)[1]


def zero_time_levels(
    vma: ValidatedMA, member: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Kahn peeling of the states in the mask `member` on the model's
    kernel (`model.flat`).

    Level 0 holds the members with no member successor, and each later
    level the members whose member successors all sit in lower levels;
    each level lists its states in ascending order.  Returns the levels
    and the mask of the members never placed: those on a cycle among the
    members and those leading into one.  Only the entries between two
    members count: their owners, ordered by successor, give the members
    that lead into each state.  Each round is a fixed number of numpy
    calls over the entries that lead into the level just placed and over
    the states.
    """
    f = flat(vma)
    owner = f.row_state[f.entry_row()]
    inner = member[owner] & member[f.succ_idx]
    owner, succ = owner[inner], f.succ_idx[inner]
    pred = owner[np.argsort(succ)]
    pred_start = _offsets(np.bincount(succ, minlength=vma.n))
    # pending[s]: the entries of s whose member successor has no level yet.
    pending = np.bincount(owner, minlength=vma.n)
    level = np.flatnonzero(member & (pending == 0))
    levels = []
    while len(level):
        levels.append(level)
        hit = np.bincount(pred[_runs(pred_start[level], pred_start[level + 1])], minlength=vma.n)
        pending -= hit
        level = np.flatnonzero((pending == 0) & (hit > 0))
    stuck = member.copy()
    for level in levels:
        stuck[level] = False
    return levels, stuck


def zero_time_cycles(rows: ActionRows, member: list[bool]) -> list[list[int]]:
    """The SCCs of the rows' graph restricted to `member` that hold a cycle
    (more than one state, or one with a self-loop), by smallest state."""

    def succ(s: int) -> list[int]:
        return [t for t in rows.successors(s) if member[t]]

    comps = _tarjan((s for s in range(rows.n) if member[s]), succ)
    return [c for c in comps if len(c) > 1 or c[0] in succ(c[0])]


def require_non_zeno(vma: ValidatedMA) -> None:
    witness = check_non_zeno(vma)
    if witness is not None:
        raise ZenoModelError({vma.name(s) for s in witness.states})


def _refine_end_components(
    vma: ValidatedMA, initial_states: Iterable[int]
) -> list[tuple[list[int], dict[int, set[str]]]]:
    """Iterative refinement to the end components inside `initial_states`.

    Splits the kept sub-model into SCCs, drops rows whose support leaves
    their component (for Markovian states this deletes the state itself),
    and re-splits the surviving members of the components that changed,
    until none does.  A component whose members all stayed alive and kept
    every row is final: its kept rows stay inside it, so no later split
    can change it.  A state removed while its component is checked counts
    as gone only at the next split.  Returns the final components, sorted
    by smallest member, with their kept action sets.
    """
    rows = action_rows(vma)
    alive = [False] * vma.n
    for s in initial_states:
        alive[s] = True
    kept = [True] * len(rows.owner)
    # Every split gives its components fresh tags, so a state outside a
    # component never carries the component's tag.
    comp_of = [-1] * vma.n
    tag = 0

    def succ(s: int) -> list[int]:
        return [t for r in rows.of[s] if kept[r] for t in rows.support[r] if alive[t]]

    final = []
    work = [s for s in range(vma.n) if alive[s]]
    while work:
        # No kept row leaves the component it was checked in, so one split
        # of all the survivors splits each component on its own.
        comps = _tarjan(work, succ)
        work = []
        for comp in comps:
            tag += 1
            for s in comp:
                comp_of[s] = tag
        for comp in comps:
            changed = False
            for s in comp:
                for r in rows.of[s]:
                    if kept[r] and any(comp_of[t] != comp_of[s] for t in rows.support[r]):
                        kept[r] = False
                        changed = True
                if not any(kept[r] for r in rows.of[s]):
                    alive[s] = False
                    changed = True
            if changed:
                work.extend(s for s in comp if alive[s])
            else:
                # Surviving singletons necessarily self-loop.
                final.append(
                    (comp, {s: {rows.label[r] for r in rows.of[s] if kept[r]} for s in comp})
                )
    final.sort(key=lambda item: item[0][0])
    return final


def mecs(vma: ValidatedMA) -> list[Mec]:
    """The maximal-end-component decomposition.

    Components are pairwise disjoint, each strongly connected and closed
    under its kept actions, and no state outside the returned components
    belongs to any end component.  Output is sorted by smallest member.
    The decomposition is computed once per model; each call returns a
    new list of the shared (immutable) components.
    """
    return list(_once(vma, "mecs", _decompose))


def _decompose(vma: ValidatedMA) -> tuple[Mec, ...]:
    # `_tarjan` sorts each component and orders them by smallest member.
    return tuple(
        Mec(frozenset(comp), tuple((s, frozenset(kept[s])) for s in comp))
        for comp, kept in _refine_end_components(vma, range(vma.n))
    )


def reach_policy(
    vma: ValidatedMA, kept: Mapping[int, Collection[str]], target: int
) -> dict[int, str]:
    """Choices that reach `target` almost surely inside an end component.

    `kept` maps each member of the component to its kept action labels.
    A backward BFS along the kept rows gives each member its distance to
    the target; each probabilistic member then picks the (smallest-labelled)
    kept action whose support gets strictly closer, which makes the hit
    certain in a strongly connected component.
    """
    rows = action_rows(vma)
    usable = [False] * len(rows.owner)
    for s in kept:
        for r in rows.of[s]:
            usable[r] = rows.label[r] in kept[s]
    distance = rows.backward([target], usable)
    policy: dict[int, str] = {}
    for s in sorted(kept):
        if s not in vma.ps or s == target:
            continue
        options = []
        for r in rows.of[s]:
            near = [d for t in rows.support[r] if (d := distance[t]) >= 0]
            if usable[r] and near:
                options.append((min(near), rows.label[r]))
        if options:
            policy[s] = min(options)[1]
    return policy


def almost_sure_reach(
    vma: ValidatedMA, goal: Iterable[int], mode: str
) -> frozenset[int]:
    """States reaching the goal set with probability one.

    Both modes are graph fixpoints over the model's `ActionRows`, with the
    goal states' rows masked out: Prob1E and Prob1A of de Alfaro (PhD
    thesis, Stanford 1997), as given by Forejt, Kwiatkowska, Norman &
    Parker, "Automated verification techniques for probabilistic systems"
    (SFM 2011).  n is the number of states and m the total support size
    of the rows.

    mode="max": some policy reaches the goal almost surely.  A greatest
    fixpoint over a candidate set that starts as every state.  Each round
    walks predecessors backwards from the goal along the rows whose whole
    support stays in the candidate set; the states it misses leave the
    set, and so does every state left with no such row, peeled through a
    count per state.  The loop ends on a round that misses nothing.  A
    round costs O(n + m), and a further round is needed only when a
    removal cuts a state's last path to the goal without taking its last
    row, so chains and most models take two rounds; at most n + 1.

    mode="min": every policy does.  First the greatest set of non-goal
    states that each keep some row with its whole support in the set
    (Prob0E), peeled the same way: every end component avoiding the goal
    lies in it, and from each member some policy stays in it forever.
    That set is then closed backwards along every row, and the answer is
    the complement of the closure.  O(n + m) in all, with no end-component
    decomposition.  A goal index outside the model raises `UnknownState`.
    """
    goal = check_goal(vma, goal)
    check_mode(mode)
    rows = action_rows(vma)
    n = vma.n
    avoid = [s not in goal for s in range(n)]
    usable = [avoid[s] for s in rows.owner]
    if mode == "max":
        candidate = [True] * n
        inside, kept = rows.inside(candidate, usable)
        while True:
            taken = rows.backward(goal, inside)
            missed = [s for s in range(n) if candidate[s] and taken[s] < 0]
            if not missed:
                return frozenset(s for s in range(n) if candidate[s])
            rows.peel(missed, candidate, inside, kept)

    inside, kept = rows.inside(avoid, usable)
    rows.peel([s for s in range(n) if avoid[s] and not kept[s]], avoid, inside, kept)
    bad = rows.backward((s for s in range(n) if avoid[s]), usable)
    return frozenset(s for s in range(n) if bad[s] < 0)
