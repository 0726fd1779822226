"""One flat kernel for every solver, and value iteration for SSPs.

All three analyses reduce to repeated passes over the induced decision
process, and `Kernel` is its only flattening: states, then their
label-sorted action rows, then each row's successors, in CSR arrays.  It
has three operations, each a numpy segment reduction: the per-row
expectation of a value vector, the per-state optimum over rows, and the
smallest-label argopt.  The SSP value iteration below, the relative value
iteration of the long-run average, and the m- and i*-phases of timed
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
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import NotConverged, ZenoSubgraph
from .model import ValidatedMA

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
                if act.cost < 0:
                    raise ValueError(f"negative cost at {self.names[s]}/{act.label}")
                total = sum(p for _, p in act.dist)
                if abs(total - 1.0) > 1e-9:
                    raise ValueError(
                        f"kernel row {self.names[s]}/{act.label} sums to {total!r}"
                    )
        for g, value in self.terminal:
            if g not in self.goal or value < 0:
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


class Row(NamedTuple):
    """One action row: its label and its successor distribution."""

    label: str
    dist: tuple[tuple[int, float], ...]


_OPT = {"min": np.minimum, "max": np.maximum}


class Kernel:
    """The induced decision process on a set of states, flattened once.

    CSR layout: the states `upd`, each owning a run of action rows in label
    order, each row owning a run of (successor, probability) entries with
    positive probability.  `actions(s)` yields the rows of state `s` as
    objects with `label` and `dist` attributes (`Row`, `SspAction`,
    `TwoCostAction`); `acts` keeps them in row order so callers can attach
    per-row costs.  Every state needs at least one row.
    """

    def __init__(self, upd: Iterable[int], actions: Callable[[int], Iterable]):
        self.upd = np.array(list(upd), dtype=np.int64)
        self.acts: list = []
        row_state: list[int] = []
        starts: list[int] = []
        succ_starts: list[int] = []
        idx: list[int] = []
        ps: list[float] = []
        for s in self.upd.tolist():
            starts.append(len(self.acts))
            for act in sorted(actions(s), key=attrgetter("label")):
                self.acts.append(act)
                row_state.append(s)
                succ_starts.append(len(idx))
                for t, p in act.dist:
                    if p > 0.0:
                        idx.append(t)
                        ps.append(p)
        self.row_state = np.array(row_state, dtype=np.int64)
        self.starts = np.array(starts, dtype=np.int64)
        self.succ_starts = np.array(succ_starts, dtype=np.int64)
        self.succ_idx = np.array(idx, dtype=np.int64)
        self.succ_p = np.array(ps, dtype=np.float64)

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

        tiled = copy.copy(self)
        tiled.acts = self.acts * copies
        tiled.upd = shifted(self.upd, stride)
        tiled.row_state = shifted(self.row_state, stride)
        tiled.starts = shifted(self.starts, len(self.acts))
        tiled.succ_starts = shifted(self.succ_starts, len(self.succ_idx))
        tiled.succ_idx = shifted(self.succ_idx, stride)
        tiled.succ_p = np.tile(self.succ_p, copies)
        return tiled

    def expect(self, v: np.ndarray) -> np.ndarray:
        """Per row, the expectation of `v` under the row's distribution."""
        if not self.acts:
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
        return {
            s: self.acts[j].label for s, j in zip(self.upd.tolist(), first.tolist())
        }


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
    kernel = Kernel(
        (s for s in range(ssp.n) if s not in frozen), ssp.actions.__getitem__
    )
    upd = kernel.upd
    cost = np.array([act.cost for act in kernel.acts], dtype=np.float64)
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
    """Optimal zero-time propagation through probabilistic states.

    Probabilistic transitions take no time, so the value of a probabilistic
    state is the optimal expectation of the values of the first
    non-probabilistic (or otherwise terminal) states it can reach.  The
    non-terminal states must form an acyclic dependency graph; a cycle
    would mean unboundedly many instantaneous transitions and is rejected.
    They are grouped into levels once: a state sits one level above the
    highest of its non-terminal successors, so a level reads only terminal
    values and lower levels.  Each level is one `Kernel`, and the levels
    can be replayed against many terminal vectors, one after another or,
    through `tile`, several side by side in one pass.
    """

    def __init__(self, vma: ValidatedMA, terminal: frozenset[int], mode: str):
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
        self.mode = mode
        self.n = vma.n
        solved = [s for s in range(vma.n) if s not in terminal]
        bad = [s for s in solved if s not in vma.ps]
        if bad:
            raise ValueError(
                "zero-time propagation needs terminal values on all "
                f"non-probabilistic states; missing {bad}"
            )
        deps: dict[int, set[int]] = {s: set() for s in solved}
        rdeps: dict[int, set[int]] = {s: set() for s in solved}
        for s in solved:
            for _, dist in vma.ma.prob_transitions[s]:
                for t, _ in dist:
                    if t not in terminal:
                        deps[s].add(t)
                        rdeps[t].add(s)

        def rows(s: int):
            return map(Row._make, vma.ma.prob_transitions[s])

        pending = {s: len(deps[s]) for s in solved}
        level = [s for s in solved if not deps[s]]
        self.levels: list[Kernel] = []
        placed = 0
        while level:
            self.levels.append(Kernel(level, rows))
            placed += len(level)
            nxt = []
            for s in level:
                for r in rdeps[s]:
                    pending[r] -= 1
                    if pending[r] == 0:
                        nxt.append(r)
            level = sorted(nxt)
        if placed != len(solved):
            raise ZenoSubgraph([vma.name(s) for s in solved if pending[s] > 0])

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
            v[level.upd] = level.optimum(level.expect(v), self.mode)


def zero_time_reach(
    vma: ValidatedMA, terminal: Mapping[int, float], mode: str
) -> dict[int, float]:
    """Optimal expected terminal value reached through zero-time moves only.

    `terminal` must cover at least all Markovian states; the remaining
    (probabilistic) states get the sup/inf over time-abstract policies of
    the expected terminal value at the first terminal state reached via
    probabilistic transitions.  Non-Zenoness guarantees arrival.
    """
    prop = ZeroTimePropagator(vma, frozenset(terminal), mode)
    v = np.zeros(vma.n, dtype=np.float64)
    for s, value in terminal.items():
        v[s] = value
    prop.apply(v)
    return {s: float(v[s]) for s in range(vma.n) if s not in terminal}
