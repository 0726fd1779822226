"""Core data model for Markov automata.

A Markov automaton mixes two kinds of transitions: probabilistic ones
(instantaneous, labelled with an action, leading to a distribution over
states) and Markovian ones (exponentially delayed, labelled with a rate).
`validate` turns a raw `MarkovAutomaton` into a `ValidatedMA`: it applies
the maximal-progress closure (action transitions preempt rate transitions
in the same state), merges parallel rate edges, computes exit rates and
branching probabilities, and partitions the states into Markovian and
probabilistic ones.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    DistributionNotNormalized,
    DuplicateAction,
    EmptyModel,
    NonFiniteRate,
    NonPositiveRate,
    UnknownState,
)

# Tolerance accepted on input distributions; they are renormalized exactly
# after acceptance.
DIST_TOLERANCE = 1e-9

STATE_ID_RE = re.compile(r"[A-Za-z0-9_.,()\-]+\Z")

# Pseudo-action attached to the single forced move of a Markovian state.
# Spelled like the Markovian block marker of the text format.
BOT = "!"

ProbTransition = tuple[str, tuple[tuple[int, float], ...]]
MarkovEdge = tuple[int, float]


@dataclass(frozen=True)
class MarkovAutomaton:
    """Raw Markov automaton over interned state indices.

    `states` maps dense indices to the original identifiers.
    `prob_transitions[s]` lists (label, distribution) pairs and
    `markov_edges[s]` lists (target, rate) pairs; parallel rate edges are
    allowed and summed during validation.
    """

    states: tuple[str, ...]
    initial: int
    prob_transitions: tuple[tuple[ProbTransition, ...], ...]
    markov_edges: tuple[tuple[MarkovEdge, ...], ...]

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def _position(self) -> dict[str, int]:
        position: dict[str, int] = {}
        for i, name in enumerate(self.states):
            position.setdefault(name, i)
        return position

    def index_of(self, name: str) -> int:
        try:
            return self._position[name]
        except KeyError:
            raise UnknownState(name) from None

    @staticmethod
    def from_parts(
        initial: str,
        prob: Mapping[str, Sequence[tuple[str, Sequence[tuple[str, float]]]]] | None = None,
        markov: Mapping[str, Sequence[tuple[str, float]]] | None = None,
        states: Sequence[str] | None = None,
    ) -> "MarkovAutomaton":
        """Build an automaton from name-based transition tables.

        States are interned in order: `initial`, then explicit `states`,
        then every name in order of first mention.
        """
        prob = prob or {}
        markov = markov or {}
        idx: dict[str, int] = {}

        def intern(name: str) -> None:
            idx.setdefault(name, len(idx))

        intern(initial)
        for name in states or ():
            intern(name)
        for s, blocks in prob.items():
            intern(s)
            for _, dist in blocks:
                for t, _ in dist:
                    intern(t)
        for s, edges in markov.items():
            intern(s)
            for t, _ in edges:
                intern(t)

        pt: list[tuple[ProbTransition, ...]] = [() for _ in idx]
        me: list[tuple[MarkovEdge, ...]] = [() for _ in idx]
        for s, blocks in prob.items():
            pt[idx[s]] = tuple(
                (label, tuple((idx[t], float(p)) for t, p in dist))
                for label, dist in blocks
            )
        for s, edges in markov.items():
            me[idx[s]] = tuple((idx[t], float(r)) for t, r in edges)
        return MarkovAutomaton(tuple(idx), idx[initial], tuple(pt), tuple(me))


@dataclass(frozen=True)
class ValidatedMA:
    """Closed Markov automaton with derived rate quantities.

    After the maximal-progress closure every state is either Markovian
    (`ms`, only rate edges) or probabilistic (`ps`, only action
    transitions).  `exit_rate[s]` is the total outgoing rate of a Markovian
    state and `branch[s]` its embedded jump distribution; both are zero /
    empty for probabilistic states.

    The fields above are immutable.  Structure that is costly to derive
    and fixed by them (the action rows every graph pass reads, the MEC
    decomposition, the Zeno verdict) is computed by `graph` on first use
    and stored in `_derived`, so every caller shares one computation.  Each
    entry is written once and never changed afterwards; two threads racing
    on a first use compute equal values and the first stored one is kept,
    so instances stay safe to share between threads.  A model built from
    this one (for example by `make_absorbing`) starts with its own empty
    store.
    """

    ma: MarkovAutomaton
    ms: frozenset[int]
    ps: frozenset[int]
    exit_rate: tuple[float, ...]
    branch: tuple[tuple[tuple[int, float], ...], ...]
    lambda_max: float
    unreachable: frozenset[int]
    warnings: tuple[str, ...]
    _derived: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        return self.ma.n

    @property
    def states(self) -> tuple[str, ...]:
        return self.ma.states

    @property
    def initial(self) -> int:
        return self.ma.initial

    def name(self, s: int) -> str:
        return self.ma.states[s]

    def index_of(self, name: str) -> int:
        return self.ma.index_of(name)

    def enabled(self, s: int) -> tuple[tuple[str, tuple[tuple[int, float], ...]], ...]:
        """Actions of `s` in the induced decision process.

        A Markovian state exposes the single pseudo-action `BOT` with its
        branching distribution; a probabilistic state exposes its labelled
        transitions.
        """
        if s in self.ms:
            return ((BOT, self.branch[s]),)
        return self.ma.prob_transitions[s]


def _check_structure(ma: MarkovAutomaton) -> None:
    if ma.n == 0:
        raise EmptyModel()
    if not (0 <= ma.initial < ma.n):
        raise UnknownState(ma.initial)
    for s in range(ma.n):
        labels = set()
        for label, dist in ma.prob_transitions[s]:
            if label in labels:
                raise DuplicateAction(ma.states[s], label)
            labels.add(label)
            total = 0.0
            for t, p in dist:
                if not (0 <= t < ma.n):
                    raise UnknownState(t)
                if not (0.0 < p <= 1.0 + DIST_TOLERANCE):
                    raise DistributionNotNormalized(ma.states[s], label, p)
                total += p
            if abs(total - 1.0) > DIST_TOLERANCE:
                raise DistributionNotNormalized(ma.states[s], label, total)
        for t, rate in ma.markov_edges[s]:
            if not (0 <= t < ma.n):
                raise UnknownState(t)
            if not rate > 0.0:
                raise NonPositiveRate(ma.states[s], ma.states[t], rate)
            if rate == math.inf:
                raise NonFiniteRate(ma.states[s], rate)


def _renormalize(dist: Iterable[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    items = tuple(dist)
    total = sum(p for _, p in items)
    return tuple((t, p / total) for t, p in items)


def _reachable(ma: MarkovAutomaton) -> set[int]:
    seen = {ma.initial}
    stack = [ma.initial]
    while stack:
        s = stack.pop()
        nexts = [t for _, dist in ma.prob_transitions[s] for t, _ in dist]
        nexts += [t for t, _ in ma.markov_edges[s]]
        for t in nexts:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _complete(ma: MarkovAutomaton, ms, ps, exit_rate, branch, warnings) -> ValidatedMA:
    """The validated model of the closed automaton `ma` with these fields;
    `lambda_max`, the unreachable states and their warnings follow."""
    unreachable = frozenset(range(ma.n)) - frozenset(_reachable(ma))
    for s in sorted(unreachable):
        warnings.append(f"state '{ma.states[s]}' is unreachable from the initial state")
    return ValidatedMA(
        ma=ma,
        ms=frozenset(ms),
        ps=frozenset(ps),
        exit_rate=tuple(exit_rate),
        branch=tuple(branch),
        lambda_max=max((exit_rate[s] for s in ms), default=0.0),
        unreachable=unreachable,
        warnings=tuple(warnings),
    )


def validate(ma: MarkovAutomaton) -> ValidatedMA:
    """Check invariants, close under maximal progress, derive rates.

    States with both action and rate transitions lose the rate edges (a
    warning is recorded).  Deadlock states are normalized to a Markovian
    rate-1 self-loop so that every state has a defined exit rate.  Parallel
    rate edges are summed; accepted distributions are renormalized exactly.
    """
    _check_structure(ma)

    warnings: list[str] = []
    prob: list[tuple[ProbTransition, ...]] = []
    markov: list[tuple[MarkovEdge, ...]] = []
    for s in range(ma.n):
        pts = tuple(
            (label, _renormalize(dist)) for label, dist in ma.prob_transitions[s]
        )
        edges = ma.markov_edges[s]
        if pts and edges:
            warnings.append(
                f"state '{ma.states[s]}': maximal progress drops "
                f"{len(edges)} Markovian edge(s)"
            )
            edges = ()
        if not pts and not edges:
            edges = ((s, 1.0),)  # deadlock: absorbing self-loop
        prob.append(pts)
        markov.append(edges)

    closed = MarkovAutomaton(ma.states, ma.initial, tuple(prob), tuple(markov))

    ms: set[int] = set()
    ps: set[int] = set()
    exit_rate = [0.0] * ma.n
    branch: list[tuple[tuple[int, float], ...]] = [()] * ma.n
    for s in range(ma.n):
        if prob[s]:
            ps.add(s)
            continue
        ms.add(s)
        rates: dict[int, float] = {}
        for t, r in markov[s]:
            rates[t] = rates.get(t, 0.0) + r
        total = sum(rates.values())
        if not math.isfinite(total):
            raise NonFiniteRate(ma.states[s], total)
        exit_rate[s] = total
        branch[s] = tuple((t, r / total) for t, r in sorted(rates.items()))

    return _complete(closed, ms, ps, exit_rate, branch, warnings)


def make_absorbing(vma: ValidatedMA, goal: Iterable[int]) -> ValidatedMA:
    """Replace the transitions of every goal state by a rate-1 self-loop.

    Expected-time and time-bounded reachability only depend on the model up
    to the first visit of the goal set, so goal states can be made
    absorbing.  The operation is idempotent.  The result is derived from
    the validated fields and equals `validate` of the absorbed automaton.
    """
    goal = frozenset(goal)
    for g in goal:
        if not (0 <= g < vma.n):
            raise UnknownState(g)
    if not goal:
        return vma
    # Renormalizing an accepted distribution again can move its last bits;
    # `validate` of the absorbed automaton does so, and so does this.
    prob = [
        () if s in goal else tuple((label, _renormalize(dist)) for label, dist in pts)
        for s, pts in enumerate(vma.ma.prob_transitions)
    ]
    markov, exit_rate, branch = map(list, (vma.ma.markov_edges, vma.exit_rate, vma.branch))
    for g in goal:
        markov[g] = branch[g] = ((g, 1.0),)
        exit_rate[g] = 1.0
    ma = MarkovAutomaton(vma.ma.states, vma.ma.initial, tuple(prob), tuple(markov))
    return _complete(ma, vma.ms | goal, vma.ps - goal, exit_rate, branch, [])


def resolve_goal(vma: ValidatedMA, names: Iterable[str]) -> frozenset[int]:
    """Translate state identifiers to a goal set of indices."""
    return frozenset(vma.index_of(name) for name in names)
