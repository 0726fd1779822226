"""Core data model for Markov automata.

A Markov automaton mixes two kinds of transitions: probabilistic ones
(instantaneous, labelled with an action, leading to a distribution over
states) and Markovian ones (exponentially delayed, labelled with a rate).
A `MarkovAutomaton` holds them as flat blocks of numpy arrays, the form
`parse` reads a model into.  `validate` turns it into a `ValidatedMA`
with array operations: it applies the maximal-progress closure (action
transitions preempt rate transitions in the same state), merges parallel
rate edges, computes exit rates and branching probabilities, partitions
the states into Markovian and probabilistic ones, and lays out the
induced decision process as one `Kernel`, the model's one CSR; every
solver, timed phase and graph pass reads its rows through it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate, islice
from operator import add, itemgetter
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


class MarkovAutomaton:
    """Raw Markov automaton over interned states and actions, as flat blocks.

    `states` and `actions` map dense indices to identifiers and labels;
    action 0 is `BOT` and marks a Markovian block.  Block b belongs to
    state `owner[b]`, has action `action[b]` and owns the entries i in
    `range(start[b], start[b + 1])`: successor `target[i]` and
    `number[i]`, a probability or, in a Markovian block, a rate.  `parse`
    fills these arrays from the text and keeps the block sums it checked
    in `_totals`.  The constructor flattens per-state tables, state by
    state and labelled blocks first: `prob_transitions[s]` of (label,
    distribution) pairs and `markov_edges[s]` of (target, rate) pairs,
    which are in turn views of the blocks, derived on first read.
    Automata with equal states, initial state and tables are equal, and
    hash alike.
    """

    def __init__(self, states, initial, prob_transitions, markov_edges):
        index: dict = {None: 0}
        owner, action, sizes, pairs = [], [], [], []
        for s, (pts, edges) in enumerate(zip(prob_transitions, markov_edges)):
            for name, dist in (*pts, (None, edges)) if edges else pts:
                owner.append(s)
                action.append(index.setdefault(name, len(index)))
                sizes.append(len(dist))
                pairs.extend(dist)
        self._set(tuple(states), initial, (BOT, *islice(index, 1, None)), owner, action,
                  [0, *accumulate(sizes)], list(map(_first, pairs)), list(map(_second, pairs)))

    def _set(self, states, initial, actions, owner, action, start, target, number):
        self.states, self.initial, self.actions, self._totals = states, initial, actions, None
        self.owner, self.action, self.start, self.target = (
            np.asarray(a, dtype=np.int64) for a in (owner, action, start, target))
        self.number = np.asarray(number, dtype=np.float64)
        return self

    @classmethod
    def _of(cls, *blocks) -> "MarkovAutomaton":
        """The automaton of these blocks."""
        return cls.__new__(cls)._set(*blocks)

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def _tables(self) -> tuple[tuple, tuple]:
        prob: list[list[ProbTransition]] = [[] for _ in self.states]
        markov: list[tuple[MarkovEdge, ...]] = [()] * self.n
        pairs = list(zip(self.target.tolist(), self.number.tolist()))
        bounds = self.start.tolist()
        for s, a, lo, hi in zip(self.owner.tolist(), self.action.tolist(), bounds, bounds[1:]):
            if a:
                prob[s].append((self.actions[a], tuple(pairs[lo:hi])))
            else:
                markov[s] = tuple(pairs[lo:hi])
        return tuple(map(tuple, prob)), tuple(markov)

    @property
    def prob_transitions(self) -> tuple[tuple[ProbTransition, ...], ...]:
        return self._tables[0]

    @property
    def markov_edges(self) -> tuple[tuple[MarkovEdge, ...], ...]:
        return self._tables[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, MarkovAutomaton) and (self.states, self.initial) == (
            other.states, other.initial) and self._tables == other._tables

    def __hash__(self) -> int:
        return hash((self.states, self.initial, self._tables))

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
    state, zero for a probabilistic one.  `kernel` is the induced decision
    process as `validate` lays it out: the `Kernel` of all states, with
    every entry and the rows' labels.  `branch[s]` (a Markovian state's
    one row, the embedded jump distribution; empty for a probabilistic
    state) and the closed automaton's tables are views, derived on first
    read; the oracle reads them, and no analysis does.

    The fields are immutable.  Structure that is costly to derive and
    fixed by them (the action rows every graph pass reads, the MEC
    decomposition, the Zeno verdict, the zero-time levels and the
    expected-time SSP instance of each goal set, and the absorbed model
    of each goal set asked of `make_absorbing`) is computed on first
    use, never by `validate`, and stored in `_derived`, so every caller
    shares one computation.  Each entry is written once; two threads
    racing on a first use compute equal values and the first stored one
    is kept, so instances stay safe to share between threads.
    A model built from this one starts with its own empty store.
    """

    ma: MarkovAutomaton
    ms: frozenset[int]
    ps: frozenset[int]
    exit_rate: tuple[float, ...]
    lambda_max: float
    unreachable: frozenset[int]
    warnings: tuple[str, ...]
    kernel: Kernel = field(compare=False, repr=False)
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

    @cached_property
    def branch(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        k = self.kernel
        pairs = list(zip(k.succ_idx.tolist(), k.succ_p.tolist()))
        bounds = k.entry_bounds()[k.row_bounds()].tolist()  # a Markovian state has one row
        return tuple(tuple(pairs[bounds[s]:bounds[s + 1]]) if s in self.ms else ()
                     for s in range(self.n))


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

# The copies of a stacked vector (`_stack`), in order, that serve each
# query mode.
_MODES = {"min": ("min",), "max": ("max",), "both": ("min", "max")}


def check_mode(mode: str) -> None:
    """Reject a mode other than "min" and "max"."""
    if mode not in _OPT:
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")


def _modes(mode: str) -> tuple[str, ...]:
    """The modes a query `mode` ("min", "max" or "both") serves, in order."""
    if mode not in _MODES:
        raise ValueError(f"mode must be 'min', 'max' or 'both', got {mode!r}")
    return _MODES[mode]


class Kernel:
    """The induced decision process on a set of states, as one CSR.

    The states `upd` each own a run of action rows in label order (a
    Markovian state owns the one row of its branching distribution), and
    each row owns a run of (successor, probability) entries in the order
    of its distribution.  `starts[i]` is the first row of state `upd[i]`,
    `succ_starts[r]` the first entry of row r, `succ_idx` and `succ_p` hold
    the entries, `row_state[r]` is the state owning row r and `label[r]`
    its label, if the kernel has labels.  `validate` builds a model's
    kernel (`ValidatedMA.kernel`) over all its states 0..n-1, with every
    entry (a branching probability may have underflowed to zero) and the
    labels.  Every part of a kernel is taken by `cut`, with only the
    positive entries and with the labels, if there are any (the only
    field `argopt` reads): a zero-time level, the Markovian rows of an
    m-phase, an SSP's sweep and a component of the long-run average.
    Every kernel is built whole by `from_arrays` and never changed after.
    A kernel that is swept needs at least one row per state.
    """

    @classmethod
    def from_arrays(
        cls,
        upd: np.ndarray,
        starts: np.ndarray,
        succ_starts: np.ndarray,
        succ_idx: np.ndarray,
        succ_p: np.ndarray,
        label: list | None = None,
    ) -> "Kernel":
        """The kernel with these CSR arrays: `starts[i]` is the first row of
        state `upd[i]` and `succ_starts[r]` the first entry of row r."""
        kernel = cls.__new__(cls)
        kernel.upd, kernel.starts, kernel.label = upd, starts, label
        kernel.succ_starts, kernel.succ_idx, kernel.succ_p = succ_starts, succ_idx, succ_p
        kernel.row_state = np.repeat(upd, np.diff(kernel.row_bounds()))
        return kernel

    def row_bounds(self) -> np.ndarray:
        """The first row of each state, the number of rows appended."""
        return np.append(self.starts, len(self.succ_starts))

    def entry_bounds(self) -> np.ndarray:
        """The first entry of each row, the number of entries appended."""
        return np.append(self.succ_starts, len(self.succ_idx))

    def cut(self, keep: np.ndarray, rows: np.ndarray | None = None) -> "Kernel":
        """The kernel of the states `upd[keep]`, `keep` ascending positions
        in `upd`, with the ascending rows `rows` (by default every row of
        those states; at least one row of each and none of another) and
        their labels, if this kernel has labels, and each row with its
        entries of positive probability, in order (a zero entry would turn
        an infinite successor into NaN)."""
        row_start, entry_start = self.row_bounds(), self.entry_bounds()
        if rows is None:
            rows = _runs(row_start[keep], row_start[keep + 1])
        entries = _runs(entry_start[rows], entry_start[rows + 1])
        positive = self.succ_p[entries] > 0.0
        return Kernel.from_arrays(
            self.upd[keep],
            np.searchsorted(rows, self.starts[keep]),
            _offsets(positive)[_offsets(entry_start[rows + 1] - entry_start[rows])[:-1]],
            self.succ_idx[entries[positive]],
            self.succ_p[entries[positive]],
            None if self.label is None else list(map(self.label.__getitem__, rows.tolist())),
        )

    def entry_row(self) -> np.ndarray:
        """Per entry, the row that owns it."""
        return np.repeat(np.arange(len(self.succ_starts)), np.diff(self.entry_bounds()))

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
        hit = q == np.repeat(self.optimum(q, mode), np.diff(self.row_bounds()))
        rows = np.where(hit, np.arange(len(q)), len(q))
        first = np.minimum.reduceat(rows, self.starts)
        return {s: self.label[j] for s, j in zip(self.upd.tolist(), first.tolist())}


def _stack(values: Sequence[np.ndarray], modes: Sequence[str]) -> np.ndarray:
    """One vector per mode side by side, the maximum's negated.

    A loop over a `Kernel.tile` of the copies then takes every optimum as a
    minimum over all copies at once.  max(x) = -min(-x), negation is exact
    and round-to-nearest is symmetric in sign, so a negated copy goes
    through exactly the negated products, sums, differences and optima of
    a maximising run, whatever the signs of its values.
    """
    return np.concatenate([v if m == "min" else -v for v, m in zip(values, modes)])


def _unstack(w: np.ndarray, modes: Sequence[str]) -> list[np.ndarray]:
    """The per-mode vectors of a stacked `w`, signs restored."""
    return [c if m == "min" else -c for c, m in zip(np.split(w, len(modes)), modes)]


def _offsets(counts: np.ndarray) -> np.ndarray:
    """The run starts of runs of these lengths, with the total appended."""
    return np.concatenate(([0], np.cumsum(counts)))


def _runs(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The indices of the runs [starts[i], ends[i]), concatenated in order."""
    lengths = ends - starts
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per run `values[bounds[i]:bounds[i + 1]]`, its plain left-to-right
    sum (0.0 for an empty run), the builtin `sum` of Python 3.11.
    `np.add.reduceat` adds in another order, so the runs are added one
    position at a time, and the few longest by a Python loop."""
    sizes = np.diff(bounds)
    total = np.zeros(len(sizes))
    live, j = np.flatnonzero(sizes), 0
    while len(live) > 8:
        with np.errstate(over="ignore"):  # rates may sum to inf, as the builtin's do
            total[live] += values[bounds[live] + j]
        j += 1
        live = live[sizes[live] > j]
    for i in live.tolist():
        total[i] = reduce(add, values[bounds[i] + j:bounds[i + 1]].tolist(), total[i].item())
    return total


def _merged(
    entry_row: np.ndarray, target: np.ndarray, mass: np.ndarray, rows: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entry starts, successors and masses of `rows` rows, each with
    its entries' targets (of `n` states) merged and sorted: the mass of a
    repeated target is summed in entry order, as the builtin `sum` would."""
    key = entry_row * n + target
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    owner, succ = np.divmod(key[first], n)
    return _offsets(np.bincount(owner, minlength=rows))[:-1], succ, _sums(
        mass[order], np.append(first, len(key)))


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Per key, whether an earlier key equals it."""
    order = np.argsort(keys, kind="stable")
    repeat = np.zeros(len(keys), dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return repeat


def _check_structure(ma: MarkovAutomaton, rated, entry_rated, totals) -> None:
    """Raise the first error of an automaton that `parse` did not check.

    Its blocks come state by state, labelled ones first, and so do the
    checks: a repeated label, then each entry's target and number, then
    the sum.  The blocks are flagged by array operations; the first one
    flagged names the error.
    """
    n, limit, target, number = ma.n, 1.0 + DIST_TOLERANCE, ma.target, ma.number
    ok = (0 <= target) & (target < n) & (0.0 < number)
    ok &= np.where(entry_rated, number < math.inf, number <= limit)
    failed = np.diff(np.concatenate(([0], np.cumsum(~ok)))[ma.start]) > 0
    repeat = _repeats(ma.owner * len(ma.actions) + ma.action)
    bad = failed | repeat | (~rated & (np.abs(totals - 1.0) > DIST_TOLERANCE))
    if not bad.any():
        return
    b = int(np.argmax(bad))
    state, name, lo, hi = ma.states[ma.owner[b]], ma.actions[ma.action[b]], *ma.start[b:b + 2]
    if repeat[b]:
        raise DuplicateAction(state, name)
    if failed[b]:
        e = lo + int(np.argmin(ok[lo:hi]))  # the block's first failing entry
        t, x = target[e].item(), number[e].item()
        if not 0 <= t < n:
            raise UnknownState(t)
        if not rated[b]:
            raise DistributionNotNormalized(state, name, x)
        raise NonPositiveRate(state, ma.states[t], x) if not x > 0.0 else NonFiniteRate(state, x)
    raise DistributionNotNormalized(state, name, sum(number[lo:hi].tolist()))


def validate(ma: MarkovAutomaton) -> ValidatedMA:
    """Check invariants, close under maximal progress, derive rates.

    States with both action and rate transitions lose the rate edges (a
    warning is recorded).  Deadlock states get a Markovian rate-1
    self-loop, so every state has a defined exit rate.  Parallel rate
    edges are summed per target in edge order, and an exit rate sums
    those in order of first mention; accepted distributions are
    renormalized exactly.  An automaton `parse` did not read is checked
    whole first, so structural errors take precedence over a non-finite
    exit rate.  All but the search for unreachable states are array
    operations on the blocks.
    """
    n = ma.n
    if n == 0:
        raise EmptyModel()
    if not 0 <= ma.initial < n:
        raise UnknownState(ma.initial)
    owner, action, start, target, number = ma.owner, ma.action, ma.start, ma.target, ma.number
    rated, sizes = action == 0, np.diff(start)
    entry_rated = np.repeat(rated, sizes)
    totals = ma._totals
    if totals is None:
        totals = _sums(number, start)
        _check_structure(ma, rated, entry_rated, totals)

    # The closed automaton: maximal progress drops the rate blocks of the
    # probabilistic states, the rest is renormalized, and every state
    # without blocks gets a rate-1 self-loop.
    in_ps = np.zeros(n, dtype=bool)
    in_ps[owner[~rated]] = True
    dropped = rated & in_ps[owner]
    warnings = [
        f"state '{ma.states[s]}': maximal progress drops {k} Markovian edge(s)"
        for s, k in sorted(zip(owner[dropped].tolist(), sizes[dropped].tolist()))
    ]
    idle = np.flatnonzero(np.bincount(owner, minlength=n) == 0)
    keep = np.flatnonzero(~dropped)
    entries = np.flatnonzero(~np.repeat(dropped, sizes))
    scaled = np.where(entry_rated, number, number / np.repeat(totals, sizes))
    c_owner = np.concatenate((owner[keep], idle))
    c_action = np.concatenate((action[keep], np.zeros_like(idle)))
    c_sizes = np.concatenate((sizes[keep], np.ones_like(idle)))
    c_target = np.concatenate((target[entries], idle))
    c_number = np.concatenate((scaled[entries], np.ones(len(idle))))
    closed = MarkovAutomaton._of(ma.states, ma.initial, ma.actions, c_owner, c_action,
                                 _offsets(c_sizes), c_target, c_number)
    c_rated = c_action == 0

    # Rates merged per (state, target) in edge order, into groups sorted by
    # state and target; an exit rate sums its groups in order of mention.
    m = np.flatnonzero(np.repeat(c_rated, c_sizes))
    groups, mention, group = np.unique(np.repeat(c_owner, c_sizes)[m] * n + c_target[m],
                                       return_index=True, return_inverse=True)
    g_owner, g_target = np.divmod(groups, n)
    g_start = _offsets(np.bincount(g_owner, minlength=n))
    merged = _sums(c_number[m][np.argsort(group, kind="stable")], _offsets(np.bincount(group)))
    exit_rate = _sums(merged[np.lexsort((mention, g_owner))], g_start)
    infinite = np.flatnonzero(~np.isfinite(exit_rate))
    if len(infinite):
        raise NonFiniteRate(ma.states[infinite[0]], exit_rate[infinite[0]].item())

    # The kernel: per state its rows, labelled ones sorted by label, a
    # Markovian state's one row its groups over the exit rate.
    row_lo = np.where(c_rated, len(c_target) + g_start[c_owner], closed.start[:-1])
    row_size = np.where(c_rated, g_start[c_owner + 1] - g_start[c_owner], c_sizes)
    labels = np.array(ma.actions, dtype=object)
    rows = np.lexsort((np.argsort(np.argsort(labels))[c_action], c_owner))
    entries = _runs(row_lo[rows], row_lo[rows] + row_size[rows])
    kernel = Kernel.from_arrays(
        np.arange(n),
        _offsets(np.bincount(c_owner, minlength=n))[:-1],
        _offsets(row_size[rows])[:-1],
        np.concatenate((c_target, g_target))[entries],
        np.concatenate((c_number, merged / exit_rate[g_owner]))[entries],
        labels[c_action[rows]].tolist(),
    )

    succ, bounds = kernel.succ_idx.tolist(), kernel.entry_bounds()[kernel.row_bounds()].tolist()
    seen = [False] * n
    seen[ma.initial] = True
    stack = [ma.initial]
    while stack:
        s = stack.pop()
        for t in succ[bounds[s]:bounds[s + 1]]:
            if not seen[t]:
                seen[t] = True
                stack.append(t)
    unreachable = [s for s in range(n) if not seen[s]]
    warnings += [f"state '{ma.states[s]}' is unreachable from the initial state"
                 for s in unreachable]
    ms, ps = (frozenset(np.flatnonzero(mask).tolist()) for mask in (~in_ps, in_ps))
    return ValidatedMA(ma=closed, ms=ms, ps=ps, exit_rate=tuple(exit_rate.tolist()),
                       lambda_max=exit_rate.max().item(), unreachable=frozenset(unreachable),
                       warnings=tuple(warnings), kernel=kernel)


def make_absorbing(vma: ValidatedMA, goal: Iterable[int]) -> ValidatedMA:
    """`validate` of the automaton of `vma` with the transitions of every
    goal state replaced by a rate-1 self-loop.

    Expected time and timed reachability depend on the model only up to
    the first visit of the goal set, so the goal states may be made
    absorbing, but no analysis builds this model: each masks the goal
    rows of `vma`.  Tests call it as a reference, and the benchmark's
    tracer binds its name.  It is idempotent, and built once per goal
    set and stored on `vma`.
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
