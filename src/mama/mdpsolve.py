"""Value iteration for SSPs, and zero-time propagation, on `Kernel`s.

All three analyses reduce to repeated passes over the induced decision
process, and `model.Kernel` is its one flattening: states, then their
label-sorted action rows, then each row's successors, in CSR arrays.  No
kernel is filled entry by entry, and every part of one is taken by
`Kernel.cut`: the zero-time levels and the Markovian rows of the timed
phases are cut from the model's kernel of all states
(`ValidatedMA.kernel`, built by `validate`).  An `SspInstance` holds a
`Kernel` over all its states, the model's own for expected time and
the long-run quotient, and `SspInstance.sweep` cuts the rows
`solve_ssp` sweeps from it; each component of the long-run average is
a cut of the model's kernel too.  A kernel has three operations, each a numpy segment
reduction: the per-row expectation of a value vector, the per-state
optimum over rows, and the smallest-label argopt.  The SSP value
iteration below, the relative value iteration of the long-run average,
and the m- and i*-phases of timed reachability all step through them.
Sweeps are Jacobi (every update reads the previous vector), which makes
results bit-reproducible regardless of how the work is scheduled.
Unreachable-goal states are represented by `inf` and never mixed into
finite arithmetic: a probability-weighted sum touching an `inf`
successor is itself `inf`.  Expected time and the long-run average both
solve an SSP in which each end component is merged into one gate state.
`collapse_end_components` builds that one quotient on the instance's
kernel: it carries the goal, terminal costs and every successor through
its state map, adds the long-run average's commit sinks, and its
`Quotient` reads the values, the outside choices and the gate exits back
onto the original states.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import graph
from .errors import NotConverged, ZenoSubgraph
from .model import BOT, Kernel, ValidatedMA, _merged, _offsets, _runs, _sums, check_mode

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


class SspInstance:
    """Non-negative SSP: row-stochastic kernel, costs, goal, terminal costs.

    Every non-goal state needs at least one action; costs and terminal
    costs are non-negative, and every successor and goal state is one of
    the `n` states.  `terminal` pairs goal states with their terminal cost.
    `kernel` is a labelled `Kernel` over the states 0..n-1, each state's
    rows in label order, as the model's kernel (`ValidatedMA.kernel`) is
    laid out; `cost` has one entry per row.  The goal states' rows are
    masked: no check or sweep reads them, and a goal state may have none.
    """

    def __init__(
        self,
        names: Sequence[str],
        goal: frozenset[int],
        terminal: Sequence[tuple[int, float]],
        kernel: Kernel,
        cost: np.ndarray,
    ):
        self.names, self.goal, self.terminal = names, goal, terminal
        self.kernel, self.cost = kernel, cost

    @property
    def n(self) -> int:
        return len(self.names)

    def check(self) -> None:
        """Raise ValueError for a goal state outside the instance, the first
        non-goal state without actions or with a bad row (a successor
        outside, a negative or NaN probability or cost, or probabilities
        not summing to 1 by their left-to-right sum), or a bad terminal
        cost.  A bad row is named with its first bad entry, or else with
        its cost and sum."""
        n = self.n
        for g in self.goal:
            if not (0 <= g < n):
                raise ValueError(f"goal state {g!r} is not one of the {n} states")
        k = self.kernel
        row_start, entry_start, succ, prob = k.row_bounds(), k.entry_bounds(), k.succ_idx, k.succ_p
        # NaN fails every comparison, so each flag is written to catch it;
        # a bad entry makes its row's sum NaN.
        ok = (prob >= 0) & (0 <= succ) & (succ < n)
        with np.errstate(invalid="ignore", over="ignore"):
            total = _sums(np.where(ok, prob, np.nan), entry_start)
        bad_row = ~((self.cost >= 0) & (np.abs(total - 1.0) <= 1e-9))
        bad = (np.diff(_offsets(bad_row)[row_start]) > 0) | (np.diff(row_start) == 0)
        bad[list(self.goal)] = False
        if bad.any():
            s = int(np.argmax(bad))
            first, end = row_start[s:s + 2].tolist()
            if first == end:
                raise ValueError(f"non-goal state {self.names[s]} has no actions")
            r = first + int(np.argmax(bad_row[first:end]))
            row = f"kernel row {self.names[s]}/{k.label[r]}"
            lo, hi = entry_start[r:r + 2].tolist()
            wrong = np.flatnonzero(~ok[lo:hi])
            if len(wrong):
                e = lo + wrong[0].item()
                raise ValueError(f"{row} has entry ({succ[e].item()!r}, {prob[e].item()!r})")
            raise ValueError(f"{row}: cost {self.cost[r].item()!r}, sum {total[r].item()!r}")
        for g, value in self.terminal:
            if g not in self.goal or not (value >= 0):
                raise ValueError("terminal costs must sit on goal states and be >= 0")

    def sweep(self, held: np.ndarray) -> tuple[Kernel, np.ndarray]:
        """The kernel `solve_ssp` sweeps, with its row costs: the states
        outside the mask `held`, each with all its rows, cut by `Kernel.cut`."""
        row_start = self.kernel.row_bounds()
        upd = np.flatnonzero(~held)
        rows = _runs(row_start[upd], row_start[upd + 1])
        return self.kernel.cut(upd, rows), self.cost[rows]


@dataclass
class SolveResult:
    values: list[float]
    policy: dict[int, str]
    iterations: int
    residual: float


class Quotient(NamedTuple):
    """An SSP with each end component merged into one gate state.

    `ssp` is the quotient instance, `state_map` sends every original state
    to its quotient state, `gates[j]` is the quotient index of component
    j, `kept[j]` maps its members to their kept labels, and `exits` maps
    (j, gate label) to the (member, label) the gate row came from.
    """

    ssp: SspInstance
    state_map: dict[int, int]
    gates: range
    kept: list[Mapping[int, Collection[str]]]
    exits: dict[tuple[int, str], tuple[int, str]]

    def values(self, res: SolveResult) -> list[float]:
        """The quotient solution read back at every original state."""
        return [res.values[self.state_map[s]] for s in range(len(self.state_map))]

    def choices(self, res: SolveResult, states: Iterable[int]) -> dict[int, str]:
        """The chosen labels of those `states` outside all components that choose."""
        return {
            s: res.policy[q] for s in states
            if (q := self.state_map[s]) not in self.gates and q in res.policy
        }

    def exit(
        self, vma: ValidatedMA, res: SolveResult, j: int
    ) -> tuple[tuple[int, str], dict[int, str]] | None:
        """The (member, label) playing gate j's chosen row, and the members'
        choices: the member plays it and the others steer to it by
        `graph.reach_policy`.  `None` when the gate commits to its sink."""
        chosen = res.policy.get(self.gates[j], BOT)
        if chosen == BOT:
            return None
        member, label = self.exits[(j, chosen)]
        steering = graph.reach_policy(vma, self.kept[j], member)
        return (member, label), {**steering, member: label}


def collapse_end_components(
    ssp: SspInstance,
    components: Sequence[tuple[Iterable[int], Mapping[int, Collection[str]]]],
    commit: Sequence[float] | None = None,
) -> Quotient:
    """Merge each end component into a gate carrying the actions that leave it.

    `components` lists disjoint (members, kept labels) pairs.  The states
    outside every component come first, in their original order, then gate
    `@u<j>` for component j (counted from 1).  A gate's rows are its
    members' non-kept actions, labelled `<member>.<label>` with `'`
    appended until the label is unique at that gate, in label order.  The
    goal, the terminal costs and every successor are relabelled through
    the state map, and each row's successors are merged, the mass of
    merged targets summed in entry order, and sorted; without components
    that is all that changes.  With `commit`, one value per component,
    gate j also gets a `BOT` row into a sink `@q<j>`, a goal with that
    terminal cost; another length raises ValueError.
    """
    components = [(sorted(members), kept) for members, kept in components]
    if commit is not None and len(commit) != len(components):
        raise ValueError(
            f"need one value per component, got {len(commit)} for {len(components)}"
        )
    k = ssp.kernel
    row_start, entry_start, succ, label = k.row_bounds(), k.entry_bounds(), k.succ_idx, k.label
    gate_of = np.full(ssp.n, -1)
    for j, (members, _) in enumerate(components):
        gate_of[members] = j
    outside = np.flatnonzero(gate_of < 0)
    gates = range(len(outside), len(outside) + len(components))
    state_map = np.where(gate_of < 0, 0, gates.start + gate_of)
    state_map[outside] = np.arange(len(outside))
    sinks = {} if commit is None else {gates.stop + j: float(v) for j, v in enumerate(commit)}

    # The rows in quotient order.  Row `len(label) + j` is the commit row
    # of sink j, whose one entry, appended to the instance's, is the sink.
    kept_rows = _runs(row_start[outside], row_start[outside + 1]).tolist()
    labels = list(map(label.__getitem__, kept_rows))
    widths = np.diff(row_start)[outside].tolist()
    exits: dict[tuple[int, str], tuple[int, str]] = {}
    first_row = row_start.tolist()
    for j, (members, kept) in enumerate(components):
        gate = [(BOT, len(label) + j)] if sinks else []
        for s in members:
            for r in range(first_row[s], first_row[s + 1]):
                if label[r] in kept[s]:
                    continue  # stays inside: never needed after collapse
                name = f"{ssp.names[s]}.{label[r]}"
                while (j, name) in exits:
                    name += "'"
                exits[(j, name)] = (s, label[r])
                gate.append((name, r))
        gate.sort()
        labels += [name for name, _ in gate]
        kept_rows += [r for _, r in gate]
        widths.append(len(gate))
    rows = np.array(kept_rows, dtype=np.int64)
    ends = np.concatenate((entry_start, len(succ) + 1 + np.arange(len(sinks))))
    entries = _runs(ends[rows], ends[rows + 1])
    entry_row = np.repeat(np.arange(len(rows)), ends[rows + 1] - ends[rows])
    target = np.concatenate((state_map[succ], gates.stop + np.arange(len(sinks))))
    mass = np.concatenate((k.succ_p, np.ones(len(sinks))))
    n = gates.stop + len(sinks)
    kernel = Kernel.from_arrays(
        np.arange(n),
        _offsets(np.array(widths + [0] * len(sinks), dtype=np.int64))[:-1],
        *_merged(entry_row, target[entries], mass[entries], len(rows), n),
        labels,
    )
    to = state_map.tolist()
    quotient = SspInstance(
        names=tuple(ssp.names[s] for s in outside.tolist())
        + tuple(f"@u{j + 1}" for j in range(len(components)))
        + tuple(f"@q{j + 1}" for j in range(len(sinks))),
        goal=frozenset(to[g] for g in ssp.goal).union(sinks),
        terminal=tuple((to[g], v) for g, v in ssp.terminal) + tuple(sinks.items()),
        kernel=kernel,
        cost=np.concatenate((ssp.cost, np.zeros(len(sinks))))[rows],
    )
    return Quotient(quotient, dict(enumerate(to)), gates,
                    [kept for _, kept in components], exits)


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
    are exhausted, and ValueError unless `tol` is finite and positive,
    `max_iters` is at least 1 and every state in `infinite` is a non-goal
    state of the instance.
    """
    check_tolerance(tol, max_iters)
    check_mode(mode)
    ssp.check()
    infinite = frozenset(infinite)
    for s in infinite:
        if not (0 <= s < ssp.n):
            raise ValueError(f"infinite state {s!r} is not one of the {ssp.n} states")
        if s in ssp.goal:
            raise ValueError(f"goal state {s!r} cannot be held at inf")
    v = np.zeros(ssp.n, dtype=np.float64)
    for g, value in ssp.terminal:
        v[g] = value
    v[list(infinite)] = np.inf

    held = np.zeros(ssp.n, dtype=bool)
    held[list(ssp.goal | infinite)] = True
    kernel, cost = ssp.sweep(held)
    upd = kernel.upd
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
    into levels once, by `graph.zero_time_levels` on the model's kernel
    (`ValidatedMA.kernel`): a state sits one level above the
    highest of its non-terminal successors, so a level reads only terminal
    values and lower levels.  Each level is that kernel cut to the
    level's states, and the levels can be replayed against many terminal
    vectors, one after another or, through `tile`, several side by side.
    """

    def __init__(self, vma: ValidatedMA, terminal: frozenset[int]):
        self.n = vma.n
        bad = sorted(vma.ms - terminal)
        if bad:
            raise ValueError(
                "zero-time propagation needs terminal values on all "
                f"non-probabilistic states; missing {bad}"
            )
        open_ = np.ones(vma.n, dtype=bool)
        open_[np.fromiter(terminal, np.int64, len(terminal))] = False
        levels, stuck = graph.zero_time_levels(vma, open_)
        if stuck.any():
            # Only the states on a cycle are at fault; the other unplaced
            # states merely lead into one.
            cycles = graph.zero_time_cycles(graph.action_rows(vma), stuck.tolist())
            raise ZenoSubgraph([vma.name(s) for comp in cycles for s in comp])
        self.levels: list[Kernel] = [vma.kernel.cut(level) for level in levels]

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
