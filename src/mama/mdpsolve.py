"""Value iteration for SSPs, and zero-time propagation, on `Kernel`s.

All three analyses reduce to repeated passes over the induced decision
process, and `model.Kernel` is its one flattening: states, then their
label-sorted action rows, then each row's successors, in CSR arrays.  No
kernel is filled entry by entry: the model's kernel of all states
(`model.flat`, built on first use) is cut by `Kernel.restrict` into the
zero-time levels and the Markovian rows of the timed phases, and the SSP
and long-run kernels flatten their rows by `Kernel.from_rows`, as
`model.flat` does.  A kernel has three operations, each a numpy segment
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
`collapse_end_components` builds that one quotient: it carries the goal,
terminal costs and initial state through its state map, adds the long-run
average's commit sinks, and its `Quotient` reads the values, the outside
choices and the gate exits back onto the original states.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import graph
from .errors import NotConverged, UnknownState, ZenoSubgraph
from .model import BOT, Kernel, ValidatedMA, check_mode, flat

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
    terminal costs are non-negative, and every successor and goal state
    is one of the `n` states.  `terminal` pairs goal states with their
    terminal cost.
    """

    names: tuple[str, ...]
    actions: tuple[tuple[SspAction, ...], ...]
    goal: frozenset[int]
    terminal: tuple[tuple[int, float], ...]
    initial: int = 0

    @property
    def n(self) -> int:
        return len(self.names)

    def check(self) -> None:
        n = self.n
        for g in self.goal:
            if not (0 <= g < n):
                raise ValueError(f"goal state {g!r} is not one of the {n} states")
        for s in range(n):
            if s in self.goal:
                continue
            if not self.actions[s]:
                raise ValueError(f"non-goal state {self.names[s]} has no actions")
            for act in self.actions[s]:
                total = 0.0
                for t, p in act.dist:
                    # NaN fails too; an infinite p fails the sum.
                    if not (p >= 0 and 0 <= t < n):
                        raise ValueError(
                            f"kernel row {self.names[s]}/{act.label} has entry ({t!r}, {p!r})"
                        )
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
    appended until the label is unique at that gate; every successor is
    redirected through the state map, merging the mass of merged targets,
    and so are the goal, the terminal costs and the initial state.  With
    `commit`, one value per component, gate j also gets a `BOT` row into a
    sink `@q<j>`, a goal with that terminal cost; another length raises
    ValueError.
    """
    components = [(sorted(members), kept) for members, kept in components]
    if commit is not None and len(commit) != len(components):
        raise ValueError(
            f"need one value per component, got {len(commit)} for {len(components)}"
        )
    gate_of = {s: j for j, (members, _) in enumerate(components) for s in members}
    outside = [s for s in range(ssp.n) if s not in gate_of]
    gates = range(len(outside), len(outside) + len(components))
    state_map = {s: i for i, s in enumerate(outside)}
    state_map.update((s, gates[j]) for s, j in gate_of.items())
    values = () if commit is None else commit
    sinks = {gates.stop + j: float(v) for j, v in enumerate(values)}

    def moved(a: SspAction, label: str) -> SspAction:
        mass: dict[int, float] = {}  # merged targets sum their mass
        for t, p in a.dist:
            mass[state_map[t]] = mass.get(state_map[t], 0.0) + p
        return SspAction(label, a.cost, tuple(sorted(mass.items())))

    rows = [tuple(moved(a, a.label) for a in ssp.actions[s]) for s in outside]
    exits: dict[tuple[int, str], tuple[int, str]] = {}
    for j, (members, kept) in enumerate(components):
        gate_rows = [SspAction(BOT, 0.0, ((gates.stop + j, 1.0),))] if sinks else []
        for s in members:
            for a in ssp.actions[s]:
                if a.label in kept[s]:
                    continue  # stays inside: never needed after collapse
                label = f"{ssp.names[s]}.{a.label}"
                while (j, label) in exits:
                    label += "'"
                exits[(j, label)] = (s, a.label)
                gate_rows.append(moved(a, label))
        rows.append(tuple(gate_rows))
    quotient = SspInstance(
        names=tuple(ssp.names[s] for s in outside)
        + tuple(f"@u{j + 1}" for j in range(len(components)))
        + tuple(f"@q{j + 1}" for j in range(len(sinks))),
        actions=tuple(rows) + ((),) * len(sinks),
        goal=frozenset(state_map[g] for g in ssp.goal).union(sinks),
        terminal=tuple((state_map[g], v) for g, v in ssp.terminal)
        + tuple(sinks.items()),
        initial=state_map[ssp.initial],
    )
    return Quotient(quotient, state_map, gates, [kept for _, kept in components], exits)


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
    into levels once, by `graph.zero_time_levels` on the model's kernel
    (`model.flat`, built on first use): a state sits one level above the
    highest of its non-terminal successors, so a level reads only terminal
    values and lower levels.  Each level is that kernel restricted to the
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
        self.levels: list[Kernel] = [flat(vma).restrict(level) for level in levels]

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
    negation is exact.  A terminal state outside the model raises
    `UnknownState`.
    """
    check_mode(mode)
    for s in terminal:
        if not (0 <= s < vma.n):
            raise UnknownState(s)
    sign = 1.0 if mode == "min" else -1.0
    v = np.zeros(vma.n, dtype=np.float64)
    for s, value in terminal.items():
        v[s] = sign * value
    ZeroTimePropagator(vma, frozenset(terminal)).apply(v)
    return {s: sign * float(v[s]) for s in range(vma.n) if s not in terminal}
