"""Core data model for Markov automata.

A Markov automaton mixes two kinds of transitions: probabilistic ones
(instantaneous, labelled with an action, leading to a distribution over
states) and Markovian ones (exponentially delayed, labelled with a rate).
`validate` turns a raw `MarkovAutomaton` into a `ValidatedMA`: it applies
the maximal-progress closure (action transitions preempt rate transitions
in the same state), merges parallel rate edges, computes exit rates and
branching probabilities, and partitions the states into Markovian and
probabilistic ones.  `flat` gives a validated model its induced decision
process as one CSR of numpy arrays, a `Kernel`, built on first use; every
solver, timed phase and graph pass reads its rows through that one type.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

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

_first = itemgetter(0)
_second = itemgetter(1)

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
    and fixed by them (the kernel of all states of `flat`, the action
    rows every graph pass reads, the MEC decomposition, the Zeno verdict,
    the zero-time levels of each goal set a timed query propagates
    through, and the absorbed model of each goal set asked of
    `make_absorbing`) is computed on first use, never by `validate`, and
    stored in `_derived`, so every caller shares one computation.  No
    query asks for an absorbed model: expected time and timed
    reachability mask the goal rows of this one, so each query reads one
    kernel, one set of action rows and one set of zero-time levels; the
    absorbed model is `validate` of another automaton, kept as a
    reference for tests.  Each entry is written once and never changed
    afterwards; two threads racing on a first use compute equal values
    and the first stored one is kept, so instances stay safe to share
    between threads.  A model built from this one (for example by
    `make_absorbing`) starts with its own empty store.
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


def _once(vma: ValidatedMA, key: str | tuple, compute):
    """`compute(vma)`, run on the first request and stored on the model.

    The store is write-once: a value already present is never replaced,
    so a caller can only ever see the first stored result.
    """
    store = vma._derived
    if key not in store:
        store.setdefault(key, compute(vma))
    return store[key]


_OPT = {"min": np.minimum, "max": np.maximum}


def check_mode(mode: str) -> None:
    """Reject a mode other than "min" and "max"."""
    if mode not in _OPT:
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")


class Kernel:
    """The induced decision process on a set of states, as one CSR.

    The states `upd` each own a run of action rows in label order (a
    Markovian state owns the one row of its branching distribution), and
    each row owns a run of (successor, probability) entries in the order
    of its distribution.  `starts[i]` is the first row of state `upd[i]`,
    `succ_starts[r]` the first entry of row r, `succ_idx` and `succ_p` hold
    the entries and `row_state[r]` is the state owning row r.  `flat`
    gives a model the kernel of all its states, with every entry (a
    branching probability may have underflowed to zero) and the per-row
    `label`; every other kernel over the model's states, a zero-time level
    or the Markovian rows of an m-phase, is cut from it by `restrict`.
    `from_rows` flattens label-sorted row objects, keeping only positive
    entries, for the SSP and long-run kernels, which also carry a `label`,
    the only field `argopt` reads; a kernel made by `from_arrays`,
    `restrict` or `tile` has none.  Every state needs at least one row.
    """

    @classmethod
    def from_arrays(
        cls,
        upd: np.ndarray,
        starts: np.ndarray,
        succ_starts: np.ndarray,
        succ_idx: np.ndarray,
        succ_p: np.ndarray,
    ) -> "Kernel":
        """The kernel with these CSR arrays: `starts[i]` is the first row of
        state `upd[i]` and `succ_starts[r]` the first entry of row r."""
        kernel = cls.__new__(cls)
        kernel.label = None
        kernel.upd, kernel.starts = upd, starts
        kernel.succ_starts, kernel.succ_idx, kernel.succ_p = succ_starts, succ_idx, succ_p
        kernel.row_state = np.repeat(upd, np.diff(np.append(starts, len(succ_starts))))
        return kernel

    @classmethod
    def from_rows(cls, upd: Iterable[int], rows: Sequence[Sequence]) -> "Kernel":
        """The kernel of the states `upd`, state i owning the label-sorted
        rows `rows[i]`, objects with `label` and `dist` (`SspAction`,
        `TwoCostAction`), with their positive entries and their labels."""
        pairs = [[(a.label, a.dist) for a in acts] for acts in rows]
        row_start, entry_start, succ, prob, label = flatten_rows(pairs)
        positive = prob > 0.0
        entry_row = np.repeat(np.arange(len(label)), np.diff(entry_start))
        kernel = cls.from_arrays(
            np.fromiter(upd, np.int64, len(rows)), row_start[:-1],
            _offsets(np.bincount(entry_row[positive], minlength=len(label)))[:-1],
            succ[positive], prob[positive],
        )
        kernel.label = label
        return kernel

    def entry_row(self) -> np.ndarray:
        """Per entry, the row that owns it."""
        counts = np.diff(np.append(self.succ_starts, len(self.succ_idx)))
        return np.repeat(np.arange(len(self.succ_starts)), counts)

    def restrict(self, keep: np.ndarray) -> "Kernel":
        """The kernel of the states `upd[keep]`, each with its rows and
        entries, in order."""
        row_end = np.append(self.starts[1:], len(self.succ_starts))[keep]
        rows = _runs(self.starts[keep], row_end)
        entry_end = np.append(self.succ_starts[1:], len(self.succ_idx))[rows]
        entries = _runs(self.succ_starts[rows], entry_end)
        return Kernel.from_arrays(
            self.upd[keep],
            _offsets(row_end - self.starts[keep])[:-1],
            _offsets(entry_end - self.succ_starts[rows])[:-1],
            self.succ_idx[entries],
            self.succ_p[entries],
        )

    def tile(self, copies: int, stride: int) -> "Kernel":
        """The same rows over `copies` value vectors laid side by side.

        Copy j reads and writes the entries shifted by j * stride, and its
        rows and successors follow those of copy j - 1 in the same order,
        so every reduction gives each copy exactly what this kernel gives
        it alone.
        """
        if copies == 1:
            return self

        def shifted(a: np.ndarray, step: int) -> np.ndarray:
            return np.concatenate([a + j * step for j in range(copies)])

        return Kernel.from_arrays(
            shifted(self.upd, stride), shifted(self.starts, len(self.succ_starts)),
            shifted(self.succ_starts, len(self.succ_idx)), shifted(self.succ_idx, stride),
            np.tile(self.succ_p, copies),
        )

    def expect(self, v: np.ndarray) -> np.ndarray:
        """Per row, the expectation of `v` under the row's distribution."""
        if not len(self.succ_starts):
            return np.empty(0)
        return np.add.reduceat(self.succ_p * v[self.succ_idx], self.succ_starts)

    def optimum(self, q: np.ndarray, mode: str) -> np.ndarray:
        """Per state, the minimum or maximum of the row values `q`."""
        if not len(self.upd):
            return np.empty(0)
        return _OPT[mode].reduceat(q, self.starts)

    def argopt(self, q: np.ndarray, mode: str) -> dict[int, str]:
        """Per state, the smallest label among the rows attaining the optimum.

        Rows are label-sorted, so that is the state's first optimal row.
        """
        if not len(self.upd):
            return {}
        width = np.diff(np.append(self.starts, len(q)))
        hit = q == np.repeat(self.optimum(q, mode), width)
        rows = np.where(hit, np.arange(len(q)), len(q))
        first = np.minimum.reduceat(rows, self.starts)
        return {s: self.label[j] for s, j in zip(self.upd.tolist(), first.tolist())}


def flatten_rows(rows: Sequence[Sequence[ProbTransition]]) -> tuple:
    """Per-state runs of label-sorted (label, distribution) rows as CSR
    arrays: the row starts of the states and the entry starts of the rows,
    each with the total appended, the entries' successors and
    probabilities (zeros too), and the list of the rows' labels."""
    flat_rows = list(chain.from_iterable(rows))
    dists = list(map(_second, flat_rows))
    pairs = list(chain.from_iterable(dists))
    return (
        _offsets(np.fromiter(map(len, rows), np.int64, len(rows))),
        _offsets(np.fromiter(map(len, dists), np.int64, len(dists))),
        np.fromiter(map(_first, pairs), np.int64, len(pairs)),
        np.fromiter(map(_second, pairs), np.float64, len(pairs)),
        list(map(_first, flat_rows)),
    )


def _offsets(counts: np.ndarray) -> np.ndarray:
    """The run starts of runs of these lengths, with the total appended."""
    return np.concatenate(([0], np.cumsum(counts)))


def _runs(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The indices of the runs [starts[i], ends[i]), concatenated in order."""
    lengths = ends - starts
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _flatten(vma: ValidatedMA) -> Kernel:
    """The `Kernel` of all states of `vma`, with every entry and the labels."""
    # `vma.enabled` of every state: a Markovian state has no labelled
    # transitions and a probabilistic one no branching distribution.
    row_start, entry_start, succ, prob, label = flatten_rows([
        acts if len(acts) == 1 else sorted(acts, key=_first) if acts else ((BOT, dist),)
        for acts, dist in zip(vma.ma.prob_transitions, vma.branch)
    ])
    kernel = Kernel.from_arrays(np.arange(vma.n), row_start[:-1], entry_start[:-1], succ, prob)
    kernel.label = label
    return kernel


def flat(vma: ValidatedMA) -> Kernel:
    """The model's kernel of all its states, built on first use and stored
    on it."""
    return _once(vma, "flat", _flatten)


def _total(dist: Iterable[tuple[int, float]]) -> float:
    """The builtin left-to-right sum of a distribution's probabilities."""
    return sum(map(_second, dist))


def _check_structure(ma: MarkovAutomaton) -> list[list[float]]:
    """Check every state of `ma`, in index order, before any is transformed.

    Returns, per state, the `_total` of each of its distributions in order,
    so that `validate` sums each distribution once.
    """
    n = ma.n
    if n == 0:
        raise EmptyModel()
    if not (0 <= ma.initial < n):
        raise UnknownState(ma.initial)
    limit = 1.0 + DIST_TOLERANCE
    totals: list[list[float]] = []
    for s in range(n):
        pts = ma.prob_transitions[s]
        sums: list[float] = []
        if pts:
            labels = set()
            for label, dist in pts:
                if label in labels:
                    raise DuplicateAction(ma.states[s], label)
                labels.add(label)
                for t, p in dist:
                    if not (0 <= t < n and 0.0 < p <= limit):
                        if not (0 <= t < n):
                            raise UnknownState(t)
                        raise DistributionNotNormalized(ma.states[s], label, p)
                total = _total(dist)
                if abs(total - 1.0) > DIST_TOLERANCE:
                    raise DistributionNotNormalized(ma.states[s], label, total)
                sums.append(total)
        totals.append(sums)
        for t, rate in ma.markov_edges[s]:
            if not (0 <= t < n and 0.0 < rate < math.inf):
                if not (0 <= t < n):
                    raise UnknownState(t)
                if not rate > 0.0:
                    raise NonPositiveRate(ma.states[s], ma.states[t], rate)
                raise NonFiniteRate(ma.states[s], rate)
    return totals


def _reachable(ma: MarkovAutomaton) -> list[bool]:
    """Per state, whether a depth-first search from the initial state meets it."""
    seen = [False] * ma.n
    seen[ma.initial] = True
    stack = [ma.initial]
    while stack:
        s = stack.pop()
        for _, dist in ma.prob_transitions[s]:
            for t, _ in dist:
                if not seen[t]:
                    seen[t] = True
                    stack.append(t)
        for t, _ in ma.markov_edges[s]:
            if not seen[t]:
                seen[t] = True
                stack.append(t)
    return seen


def validate(ma: MarkovAutomaton) -> ValidatedMA:
    """Check invariants, close under maximal progress, derive rates.

    States with both action and rate transitions lose the rate edges (a
    warning is recorded).  Deadlock states are normalized to a Markovian
    rate-1 self-loop so that every state has a defined exit rate.  Parallel
    rate edges are summed; accepted distributions are renormalized exactly.
    Every structural check runs on the whole automaton first, so its errors
    take precedence over a non-finite exit rate.
    """
    totals = _check_structure(ma)

    n = ma.n
    warnings: list[str] = []
    prob: list[tuple[ProbTransition, ...]] = [()] * n
    markov: list[tuple[MarkovEdge, ...]] = [()] * n
    ms: list[int] = []
    ps: list[int] = []
    exit_rate = [0.0] * n
    branch: list[tuple[tuple[int, float], ...]] = [()] * n
    for s in range(n):
        pts, edges = ma.prob_transitions[s], ma.markov_edges[s]
        if pts:
            ps.append(s)
            prob[s] = tuple([
                (label, tuple([(t, p / total) for t, p in dist]))
                for (label, dist), total in zip(pts, totals[s])
            ])
            if edges:
                warnings.append(
                    f"state '{ma.states[s]}': maximal progress drops "
                    f"{len(edges)} Markovian edge(s)"
                )
            continue
        if not edges:
            edges = ((s, 1.0),)  # deadlock: absorbing self-loop
        ms.append(s)
        markov[s] = edges
        rates: dict[int, float] = {}
        for t, r in edges:
            rates[t] = rates.get(t, 0.0) + r
        total = sum(rates.values())
        if not math.isfinite(total):
            raise NonFiniteRate(ma.states[s], total)
        exit_rate[s] = total
        branch[s] = tuple([(t, r / total) for t, r in sorted(rates.items())])

    closed = MarkovAutomaton(ma.states, ma.initial, tuple(prob), tuple(markov))
    seen = _reachable(closed)
    unreachable = [s for s in range(n) if not seen[s]]
    for s in unreachable:
        warnings.append(f"state '{ma.states[s]}' is unreachable from the initial state")
    return ValidatedMA(
        ma=closed,
        ms=frozenset(ms),
        ps=frozenset(ps),
        exit_rate=tuple(exit_rate),
        branch=tuple(branch),
        lambda_max=max(exit_rate, default=0.0),
        unreachable=frozenset(unreachable),
        warnings=tuple(warnings),
    )


def make_absorbing(vma: ValidatedMA, goal: Iterable[int]) -> ValidatedMA:
    """`validate` of the automaton of `vma` with the transitions of every
    goal state replaced by a rate-1 self-loop.

    Expected time and timed reachability depend on the model only up to
    the first visit of the goal set, so the goal states may be made
    absorbing.  No analysis builds this model: each reads `vma` with the
    goal rows masked.  Tests call it as a reference, and the benchmark's
    tracer (perfbench/spans.py) binds its name.  The operation is
    idempotent.  The result is built once per goal set and stored on
    `vma`.
    """
    goal = check_goal(vma, goal)
    if not goal:
        return vma
    return _once(vma, ("absorbed", goal), lambda v: _absorb(v, goal))


def _absorb(vma: ValidatedMA, goal: frozenset[int]) -> ValidatedMA:
    ma = vma.ma
    return validate(MarkovAutomaton(
        ma.states,
        ma.initial,
        tuple(() if s in goal else pts for s, pts in enumerate(ma.prob_transitions)),
        tuple(((s, 1.0),) if s in goal else edges for s, edges in enumerate(ma.markov_edges)),
    ))


def check_goal(vma: ValidatedMA, goal: Iterable[int]) -> frozenset[int]:
    """`goal` as a set, after raising `UnknownState` for an index outside
    `range(vma.n)`."""
    goal = frozenset(goal)
    for g in goal:
        if not (0 <= g < vma.n):
            raise UnknownState(g)
    return goal


def resolve_goal(vma: ValidatedMA, names: Iterable[str]) -> frozenset[int]:
    """Translate state identifiers to a goal set of indices."""
    return frozenset(vma.index_of(name) for name in names)
