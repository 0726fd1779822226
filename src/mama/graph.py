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

from .errors import ZenoModelError
from .model import ValidatedMA


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

    @property
    def min_state(self) -> int:
        return min(self.states)


def _union_successors(vma: ValidatedMA, s: int) -> list[int]:
    succ = [t for _, dist in vma.enabled(s) for t, _ in dist]
    seen: set[int] = set()
    out = []
    for t in succ:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


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


def sccs(vma: ValidatedMA) -> list[frozenset[int]]:
    """Strongly connected components of the union graph.

    The union graph has an edge for every Markovian move and for every
    probabilistic successor with positive probability.  Components are
    returned sorted by their smallest member index.
    """
    comps = _tarjan(range(vma.n), lambda s: _union_successors(vma, s))
    return [frozenset(c) for c in comps]


def _once(vma: ValidatedMA, key: str, compute):
    """`compute(vma)`, run on the first request and stored on the model.

    The store is write-once: a value already present is never replaced,
    so a caller can only ever see the first stored result.
    """
    store = vma._derived
    if key not in store:
        store.setdefault(key, compute(vma))
    return store[key]


def check_non_zeno(vma: ValidatedMA) -> ZenoWitness | None:
    """Search for a reachable cycle of probabilistic transitions.

    Returns the first such component (by smallest state index) or None if
    the model is non-Zeno.  A singleton probabilistic state only counts
    when some action loops back to it.  The verdict is computed once per
    model and then read back.
    """
    return _once(vma, "zeno", _zeno_witness)


def _zeno_witness(vma: ValidatedMA) -> ZenoWitness | None:
    nodes = sorted(vma.ps - vma.unreachable)

    def psucc(s: int) -> list[int]:
        return [
            t
            for _, dist in vma.ma.prob_transitions[s]
            for t, _ in dist
            if t in vma.ps and t not in vma.unreachable
        ]

    for comp in _tarjan(nodes, psucc):
        if len(comp) > 1:
            return ZenoWitness(frozenset(comp))
        s = comp[0]
        if any(t == s for t in psucc(s)):
            return ZenoWitness(frozenset(comp))
    return None


def require_non_zeno(vma: ValidatedMA) -> None:
    witness = check_non_zeno(vma)
    if witness is not None:
        raise ZenoModelError({vma.name(s) for s in witness.states})


def _refine_end_components(
    vma: ValidatedMA, initial_states: Iterable[int]
) -> list[tuple[list[int], dict[int, set[str]]]]:
    """Iterative refinement to the end components inside `initial_states`.

    Repeatedly splits the kept sub-model into SCCs, drops actions whose
    support leaves their component (for Markovian states this deletes the
    state itself), and re-splits until stable.  Returns the surviving
    components with their kept action sets.
    """
    alive: set[int] = set(initial_states)
    kept: dict[int, set[str]] = {
        s: {label for label, _ in vma.enabled(s)} for s in alive
    }

    while True:
        def succ(s: int) -> list[int]:
            out = []
            for label, dist in vma.enabled(s):
                if label in kept[s]:
                    out.extend(t for t, _ in dist if t in alive)
            return sorted(set(out))

        comps = _tarjan(sorted(alive), succ)
        comp_of = {}
        for i, comp in enumerate(comps):
            for s in comp:
                comp_of[s] = i
        changed = False
        for s in sorted(alive):
            for label, dist in vma.enabled(s):
                if label not in kept[s]:
                    continue
                targets = [t for t, _ in dist]
                if any(
                    t not in alive or comp_of[t] != comp_of[s] for t in targets
                ):
                    kept[s].discard(label)
                    changed = True
        dead = {s for s in alive if not kept[s]}
        if dead:
            alive -= dead
            changed = True
        if not changed:
            # Nothing changed since `comps` was computed, so every kept
            # action stays inside its own component: these are the end
            # components (surviving singletons necessarily self-loop).
            return [(comp, {s: set(kept[s]) for s in comp}) for comp in comps]


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
    out = []
    for comp, kept in _refine_end_components(vma, range(vma.n)):
        actions = tuple(
            (s, frozenset(kept[s])) for s in sorted(comp)
        )
        out.append(Mec(frozenset(comp), actions))
    out.sort(key=lambda m: m.min_state)
    return tuple(out)


def reach_policy(
    vma: ValidatedMA, kept: Mapping[int, Collection[str]], target: int
) -> dict[int, str]:
    """Choices that reach `target` almost surely inside an end component.

    `kept` maps each member of the component to its kept action labels.
    A backward BFS over predecessor lists of the kept sub-model gives each
    member its distance to the target; each probabilistic member then picks
    the (smallest-labelled) kept action whose support gets strictly closer,
    which makes the hit certain in a strongly connected component.
    """
    pred: dict[int, list[int]] = {s: [] for s in kept}
    for s in sorted(kept):
        for label, dist in vma.enabled(s):
            if label in kept[s]:
                for t, _ in dist:
                    pred[t].append(s)
    distance = {target: 0}
    frontier = [target]
    while frontier:
        nxt = []
        for t in frontier:
            for s in pred[t]:
                if s not in distance:
                    distance[s] = distance[t] + 1
                    nxt.append(s)
        frontier = sorted(nxt)

    policy: dict[int, str] = {}
    for s in sorted(kept):
        if s not in vma.ps or s == target:
            continue
        best: tuple[int, str] | None = None
        for label, dist in vma.ma.prob_transitions[s]:
            if label not in kept[s]:
                continue
            reachable = [distance[t] for t, _ in dist if t in distance]
            if reachable and (best is None or (min(reachable), label) < best):
                best = (min(reachable), label)
        if best is not None:
            policy[s] = best[1]
    return policy


class _ActionRows:
    """The action rows of the non-goal states and their predecessors.

    `owner[r]` is the state of row r and `support[r]` its distinct
    successors; `preds[t]` lists the rows whose support contains t.  A
    Markovian state has the one row of its branching distribution.  Goal
    rows are left out: no almost-sure fixpoint reads them.
    """

    def __init__(self, vma: ValidatedMA, goal: frozenset[int]):
        self.n = vma.n
        self.owner: list[int] = []
        self.support: list[tuple[int, ...]] = []
        self.preds: list[list[int]] = [[] for _ in range(vma.n)]
        for s in range(vma.n):
            if s in goal:
                continue
            for _, dist in vma.enabled(s):
                targets = tuple(dict.fromkeys(t for t, _ in dist))
                for t in targets:
                    self.preds[t].append(len(self.owner))
                self.owner.append(s)
                self.support.append(targets)

    def inside(self, member: list[bool]) -> tuple[list[bool], list[int]]:
        """Per row whether its support lies in `member`, and per state the
        number of its rows that do."""
        inside = [all(member[t] for t in targets) for targets in self.support]
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

    def backward(self, sources: Iterable[int], usable: list[bool]) -> list[bool]:
        """The states that reach `sources` along `usable` rows."""
        seen = [False] * self.n
        queue = list(sources)
        for s in queue:
            seen[s] = True
        while queue:
            t = queue.pop()
            for r in self.preds[t]:
                s = self.owner[r]
                if usable[r] and not seen[s]:
                    seen[s] = True
                    queue.append(s)
        return seen


def almost_sure_reach(
    vma: ValidatedMA, goal: Iterable[int], mode: str
) -> frozenset[int]:
    """States reaching the goal set with probability one.

    Both modes are graph fixpoints over the action rows of the non-goal
    states and their predecessor lists, built once per call: Prob1E and
    Prob1A of de Alfaro (PhD thesis, Stanford 1997), as given by Forejt,
    Kwiatkowska, Norman & Parker, "Automated verification techniques for
    probabilistic systems" (SFM 2011).  n is the number of states and m
    the total support size of the rows.

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
    decomposition.
    """
    goal = frozenset(goal)
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    rows = _ActionRows(vma, goal)
    if mode == "max":
        candidate = [True] * vma.n
        inside, kept = rows.inside(candidate)
        while True:
            taken = rows.backward(goal, inside)
            missed = [s for s in range(vma.n) if candidate[s] and not taken[s]]
            if not missed:
                return frozenset(s for s in range(vma.n) if candidate[s])
            rows.peel(missed, candidate, inside, kept)

    avoid = [s not in goal for s in range(vma.n)]
    inside, kept = rows.inside(avoid)
    rows.peel([s for s in range(vma.n) if avoid[s] and not kept[s]], avoid, inside, kept)
    bad = rows.backward(
        (s for s in range(vma.n) if avoid[s]), [True] * len(rows.owner)
    )
    return frozenset(s for s in range(vma.n) if not bad[s])
