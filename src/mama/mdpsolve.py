"""One flat kernel for every solver, and value iteration for SSPs.

All three analyses reduce to repeated passes over the induced decision
process, and `Kernel` is its solver-side flattening: states, then their
label-sorted action rows, then each row's successors, in CSR arrays.  No
kernel is filled entry by entry: the timed kernels are row selections of
the model's flat CSR (`model.flat`, built on first use), and the SSP and
long-run kernels flatten their rows by `model.flatten_rows`, as that CSR
does.  A kernel has three operations, each a numpy segment reduction: the
per-row expectation of a value vector, the per-state optimum over rows, and
the smallest-label argopt.  The SSP value iteration below, the relative
value iteration of the long-run average, and the m- and i*-phases of timed
reachability all step through them.  Sweeps are Jacobi (every update reads
the previous vector), which makes results bit-reproducible regardless of
how the work is scheduled.  Unreachable-goal states are represented by
`inf` and never mixed into finite arithmetic: a probability-weighted sum
touching an `inf` successor is itself `inf`.  Expected time and the
long-run average both solve an SSP in which each end component is merged
into one gate state; `collapse_end_components` builds that quotient.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import graph
from .errors import NotConverged, ZenoSubgraph
from .model import ValidatedMA, _offsets, _runs, flat, flatten_rows

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 10_000_000


def check_tolerance(tol: float, max_iters: int) -> None:
    """Reject a stopping rule no iteration can meet: `tol` must be finite
    and positive (a NaN or zero tolerance is never reached) and at least
    one sweep must be allowed."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not (max_iters >= 1):
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")


@dataclass(frozen=True)
class SspAction:
    label: str
    cost: float
    dist: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class SspInstance:
    """Non-negative SSP: row-stochastic kernel, costs, goal, terminal costs.

    `actions[s]` must be nonempty for every non-goal state; costs and
    terminal costs are non-negative.  `terminal` pairs goal states with
    their terminal cost.
    """

    names: tuple[str, ...]
    actions: tuple[tuple[SspAction, ...], ...]
    goal: frozenset[int]
    terminal: tuple[tuple[int, float], ...]
    initial: int = 0

    @property
    def n(self) -> int:
        return len(self.names)

    def terminal_map(self) -> dict[int, float]:
        return dict(self.terminal)

    def check(self) -> None:
        for s in range(self.n):
            if s in self.goal:
                continue
            if not self.actions[s]:
                raise ValueError(f"non-goal state {self.names[s]} has no actions")
            for act in self.actions[s]:
                total = 0.0
                for _, p in act.dist:
                    if not (p >= 0):  # NaN fails too; an infinite p fails the sum
                        raise ValueError(f"kernel row {self.names[s]}/{act.label} has p = {p!r}")
                    total += p
                if not (act.cost >= 0) or abs(total - 1.0) > 1e-9:
                    raise ValueError(
                        f"kernel row {self.names[s]}/{act.label}: cost {act.cost!r}, sum {total!r}"
                    )
        for g, value in self.terminal:
            if g not in self.goal or not (value >= 0):
                raise ValueError("terminal costs must sit on goal states and be >= 0")


@dataclass
class SolveResult:
    values: list[float]
    policy: dict[int, str]
    iterations: int
    residual: float


def retarget(
    dist: Iterable[tuple[int, float]], state_map: Mapping[int, int]
) -> tuple[tuple[int, float], ...]:
    """`dist` pushed through `state_map`, summing the mass of merged targets."""
    mass: dict[int, float] = {}
    for t, p in dist:
        qt = state_map[t]
        mass[qt] = mass.get(qt, 0.0) + p
    return tuple(sorted(mass.items()))


class Quotient(NamedTuple):
    """An SSP with each end component merged into one gate state.

    `state_map` sends every original state to its quotient state,
    `gates[j]` is the quotient index of component j, and `exits` maps
    (j, gate label) to the (member, label) the gate row came from.
    """

    names: tuple[str, ...]
    actions: tuple[tuple[SspAction, ...], ...]
    state_map: dict[int, int]
    gates: list[int]
    exits: dict[tuple[int, str], tuple[int, str]]


def collapse_end_components(
    names: Sequence[str],
    actions: Sequence[Iterable[SspAction]],
    components: Sequence[tuple[Iterable[int], Mapping[int, Collection[str]]]],
) -> Quotient:
    """Merge each end component into a gate carrying the actions that leave it.

    `components` lists disjoint (members, kept labels) pairs.  The states
    outside every component come first, in their original order, then gate
    `@u<j>` for component j (counted from 1).  A gate's rows are its
    members' non-kept actions, labelled `<member>.<label>` with `'`
    appended until the label is unique at that gate; every successor is
    redirected through the state map, merging the mass of merged targets.
    """
    components = [(sorted(members), kept) for members, kept in components]
    gate_of = {s: j for j, (members, _) in enumerate(components) for s in members}
    outside = [s for s in range(len(names)) if s not in gate_of]
    gates = list(range(len(outside), len(outside) + len(components)))
    state_map = {s: i for i, s in enumerate(outside)}
    state_map.update((s, gates[j]) for s, j in gate_of.items())

    rows = [
        tuple(
            SspAction(a.label, a.cost, retarget(a.dist, state_map))
            for a in actions[s]
        )
        for s in outside
    ]
    exits: dict[tuple[int, str], tuple[int, str]] = {}
    for j, (members, kept) in enumerate(components):
        gate_rows = []
        for s in members:
            for a in actions[s]:
                if a.label in kept[s]:
                    continue  # stays inside: never needed after collapse
                label = f"{names[s]}.{a.label}"
                while (j, label) in exits:
                    label += "'"
                exits[(j, label)] = (s, a.label)
                gate_rows.append(
                    SspAction(label, a.cost, retarget(a.dist, state_map))
                )
        rows.append(tuple(gate_rows))
    return Quotient(
        names=tuple(names[s] for s in outside)
        + tuple(f"@u{j + 1}" for j in range(len(components))),
        actions=tuple(rows),
        state_map=state_map,
        gates=gates,
        exits=exits,
    )


_OPT = {"min": np.minimum, "max": np.maximum}


class Kernel:
    """The induced decision process on a set of states, flattened once.

    CSR layout: the states `upd`, each owning a run of action rows in label
    order, each row owning a run of (successor, probability) entries.
    Kernels are built from arrays: `from_rows` flattens label-sorted row
    objects through `model.flatten_rows`, keeping only positive entries,
    and gives the kernel its per-row `label`, which only `argopt` reads; a
    kernel made by `from_arrays`, `restrict`, `split` or `tile` has none.
    Every state needs at least one row.
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

    def split(self, sizes: Iterable[int]) -> list["Kernel"]:
        """This kernel cut into kernels of consecutive runs of `sizes`
        states, each with its rows and entries."""
        row_end = np.append(self.starts, len(self.succ_starts))
        entry_end = np.append(self.succ_starts, len(self.succ_idx))
        parts = []
        a = 0
        for size in sizes:
            b = a + size
            ra, rb = row_end[a], row_end[b]
            ea, eb = entry_end[ra], entry_end[rb]
            parts.append(Kernel.from_arrays(
                self.upd[a:b], self.starts[a:b] - ra, self.succ_starts[ra:rb] - ea,
                self.succ_idx[ea:eb], self.succ_p[ea:eb],
            ))
            a = b
        return parts

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


def solve_ssp(
    ssp: SspInstance,
    mode: str,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    infinite: Iterable[int] = (),
) -> SolveResult:
    """Value iteration on the SSP Bellman operator.

    Starts from 0 on non-goal states and the terminal cost on goal states
    and sweeps until the sup-norm change drops below `tol`, scaled by an
    estimate of the contraction rate so the reported values are within
    `tol` of the fixpoint rather than merely one sweep from it.  States
    listed in `infinite` are held at `inf`; states whose every route runs
    through them converge to `inf` as well (not an error).  Iterates are
    pointwise nondecreasing.  Raises NotConverged when `max_iters` sweeps
    are exhausted, and ValueError unless `tol` is finite and positive and
    `max_iters` is at least 1.
    """
    check_tolerance(tol, max_iters)
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    ssp.check()
    infinite = frozenset(infinite)
    v = np.zeros(ssp.n, dtype=np.float64)
    for g, value in ssp.terminal:
        v[g] = value
    for s in infinite:
        v[s] = np.inf

    frozen = ssp.goal | infinite
    states = [s for s in range(ssp.n) if s not in frozen]
    rows = [sorted(ssp.actions[s], key=attrgetter("label")) for s in states]
    kernel = Kernel.from_rows(states, rows)
    upd = kernel.upd
    cost = np.array([a.cost for acts in rows for a in acts], dtype=np.float64)
    residual = 0.0
    previous = None
    iterations = 0
    # inf - inf (a state at inf in both iterates) is NaN; it counts as no change.
    with np.errstate(invalid="ignore"):
        while True:
            best = kernel.optimum(cost + kernel.expect(v), mode)
            diff = np.abs(best - v[upd])
            diff[np.isnan(diff)] = 0.0
            residual = float(diff.max()) if len(upd) else 0.0
            v[upd] = best
            iterations += 1
            if residual <= tol:
                rate = (
                    min(residual / previous, 0.999999)
                    if previous not in (None, 0.0) and math.isfinite(residual)
                    else 0.5
                )
                if residual <= tol * max(1.0 - rate, 1.0 / 64.0):
                    break
            previous = residual if math.isfinite(residual) else None
            if iterations >= max_iters:
                raise NotConverged(iterations, residual)

    policy = kernel.argopt(cost + kernel.expect(v), mode)
    return SolveResult(
        values=[float(x) for x in v],
        policy=policy,
        iterations=iterations,
        residual=residual,
    )


class ZeroTimePropagator:
    """Minimal zero-time propagation through probabilistic states.

    Probabilistic transitions take no time, so the value of a probabilistic
    state is the minimal expectation of the values of the first
    non-probabilistic (or otherwise terminal) states it can reach; the
    maximum is the negated minimum of the negated values.  The
    non-terminal states must form an acyclic dependency graph; a cycle
    would mean unboundedly many instantaneous transitions and is rejected
    with `ZenoSubgraph`, naming the states on a cycle.  They are grouped
    into levels once, by `graph.zero_time_levels` on the model's flat CSR
    (`model.flat`, built on first use): a state sits one level above the
    highest of its non-terminal successors, so a level reads only terminal
    values and lower levels.  Each level is one `Kernel`, a row selection
    of the flat CSR, and the levels can be replayed against many terminal
    vectors, one after another or, through `tile`, several side by side.
    """

    def __init__(self, vma: ValidatedMA, terminal: frozenset[int]):
        self.n = vma.n
        f = flat(vma)
        open_ = np.ones(vma.n, dtype=bool)
        open_[np.fromiter(terminal, np.int64, len(terminal))] = False
        bad = np.flatnonzero(open_ & f.markovian)
        if len(bad):
            raise ValueError(
                "zero-time propagation needs terminal values on all "
                f"non-probabilistic states; missing {bad.tolist()}"
            )
        levels, stuck = graph.zero_time_levels(vma, open_)
        if stuck.any():
            # Only the states on a cycle are at fault; the other unplaced
            # states merely lead into one.
            cycles = graph.zero_time_cycles(graph.action_rows(vma), stuck.tolist())
            raise ZenoSubgraph([vma.name(s) for comp in cycles for s in comp])
        self.levels: list[Kernel] = []
        if levels:
            whole = Kernel.from_arrays(
                np.arange(vma.n), f.row_start[:-1], f.entry_start[:-1], f.succ, f.prob
            )
            self.levels = whole.restrict(np.concatenate(levels)).split(map(len, levels))

    def tile(self, copies: int) -> "ZeroTimePropagator":
        """This propagation over `copies` value vectors laid side by side.

        `apply` then takes a vector of `copies` * n entries and fills the
        non-terminal entries of every copy with one reduction per level;
        each copy gets exactly the values a separate `apply` would give it.
        """
        tiled = copy.copy(self)
        tiled.levels = [level.tile(copies, self.n) for level in self.levels]
        return tiled

    def apply(self, v: np.ndarray) -> None:
        """Fill the non-terminal entries of `v` in place, level by level."""
        for level in self.levels:
            v[level.upd] = level.optimum(level.expect(v), "min")


def zero_time_reach(
    vma: ValidatedMA, terminal: Mapping[int, float], mode: str
) -> dict[int, float]:
    """Optimal expected terminal value reached through zero-time moves only.

    `terminal` must cover at least all Markovian states; the remaining
    (probabilistic) states get the sup/inf over time-abstract policies of
    the expected terminal value at the first terminal state reached via
    probabilistic transitions.  Non-Zenoness guarantees arrival.  The
    maximum is found as the negated minimum of the negated terminal values;
    negation is exact.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    sign = 1.0 if mode == "min" else -1.0
    v = np.zeros(vma.n, dtype=np.float64)
    for s, value in terminal.items():
        v[s] = sign * value
    ZeroTimePropagator(vma, frozenset(terminal)).apply(v)
    return {s: sign * float(v[s]) for s in range(vma.n) if s not in terminal}
