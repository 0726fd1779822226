"""Reader and writer for the textual `.ma` model format.

The format is line oriented; `%` starts a comment and blank lines are
ignored.  A file contains an `#INITIAL` section (one state id), an optional
`#GOALS` section (whitespace-separated ids) and a `#TRANSITIONS` section
made of blocks:

    <state-id> <label>
    * <target-id> <number>
    ...

A block labelled `!` is Markovian and its numbers are rates (> 0 and
finite); any other label opens a probabilistic block whose numbers must
sum to 1 within 1e-9.  See docs/format.md for the full grammar.
"""

from __future__ import annotations

import math

from .errors import (
    DistributionNotNormalized,
    DuplicateAction,
    DuplicateMarkovianBlock,
    ParseError,
    UnknownSection,
)
from .model import STATE_ID_RE, MarkovAutomaton

_SECTIONS = ("#INITIAL", "#GOALS", "#TRANSITIONS")


def _strip(line: str) -> str:
    cut = line.find("%")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def _check_id(token: str, lineno: int, what: str = "state id") -> str:
    if not STATE_ID_RE.match(token):
        raise ParseError(lineno, f"invalid {what} '{token}'")
    return token


def _number(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(lineno, f"invalid number '{token}'") from None


class _Builder:
    def __init__(self) -> None:
        self.order: list[str] = []
        self.index: dict[str, int] = {}
        self.initial: int | None = None
        self.goals: list[int] = []
        # per state: list of (label, [(target, number), ...]); "!" = Markovian
        self.blocks: dict[int, list[tuple[str, list[tuple[int, float]]]]] = {}

    def intern(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.order)
            self.order.append(name)
        return self.index[name]


def parse(text: str) -> tuple[MarkovAutomaton, frozenset[int]]:
    """Parse model text into an automaton and its default goal set.

    States are interned in order of first appearance.  Raises the
    documented error classes with 1-based line numbers.
    """
    b = _Builder()
    section: str | None = None
    current: tuple[int, str, list[tuple[int, float]], int] | None = None  # s, label, rows, line
    seen_sections: set[str] = set()

    def close_block() -> None:
        nonlocal current
        if current is None:
            return
        s, label, rows, lineno = current
        if not rows:
            raise ParseError(lineno, f"block '{b.order[s]} {label}' has no transitions")
        if label != "!":
            total = sum(p for _, p in rows)
            if abs(total - 1.0) > 1e-9:
                raise DistributionNotNormalized(b.order[s], label, total, line=lineno)
        for other_label, _ in b.blocks.get(s, ()):
            if other_label == label:
                if label == "!":
                    raise DuplicateMarkovianBlock(b.order[s], line=lineno)
                raise DuplicateAction(b.order[s], label, line=lineno)
        b.blocks.setdefault(s, []).append((label, rows))
        current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        tokens = line.split()
        if tokens[0].startswith("#"):
            close_block()
            name = tokens[0]
            if name not in _SECTIONS:
                raise UnknownSection(lineno, name)
            if name in seen_sections:
                raise ParseError(lineno, f"section {name} appears twice")
            if len(tokens) > 1:
                raise ParseError(lineno, f"unexpected tokens after {name}")
            seen_sections.add(name)
            section = name
            continue
        if section == "#INITIAL":
            if len(tokens) != 1 or b.initial is not None:
                raise ParseError(lineno, "#INITIAL takes exactly one state id")
            b.initial = b.intern(_check_id(tokens[0], lineno))
        elif section == "#GOALS":
            for tok in tokens:
                g = b.intern(_check_id(tok, lineno))
                if g not in b.goals:
                    b.goals.append(g)
        elif section == "#TRANSITIONS":
            if tokens[0] == "*":
                if current is None:
                    raise ParseError(lineno, "'*' line outside a transition block")
                if len(tokens) != 3:
                    raise ParseError(lineno, "expected '* <state-id> <number>'")
                target = b.intern(_check_id(tokens[1], lineno))
                value = _number(tokens[2], lineno)
                _, label, rows, _ = current
                if label == "!":
                    if not 0.0 < value < math.inf:
                        raise ParseError(lineno, f"rate {tokens[2]} must be positive and finite")
                else:
                    if not (0.0 < value <= 1.0 + 1e-9):
                        raise ParseError(
                            lineno, f"probability {tokens[2]} must be in (0,1]"
                        )
                rows.append((target, value))
            else:
                close_block()
                if len(tokens) != 2:
                    raise ParseError(lineno, "expected '<state-id> <label>'")
                s = b.intern(_check_id(tokens[0], lineno))
                label = tokens[1]
                if label != "!":
                    _check_id(label, lineno, what="action label")
                current = (s, label, [], lineno)
        else:
            raise ParseError(lineno, "content before any section header")
    close_block()

    if "#TRANSITIONS" not in seen_sections:
        raise ParseError(len(text.splitlines()) + 1, "missing #TRANSITIONS section")
    if b.initial is None:
        raise ParseError(len(text.splitlines()) + 1, "missing #INITIAL section")

    n = len(b.order)
    prob: list[tuple] = [() for _ in range(n)]
    markov: list[tuple] = [() for _ in range(n)]
    for s, blocks in b.blocks.items():
        pts = []
        for label, rows in blocks:
            if label == "!":
                markov[s] = tuple(rows)
            else:
                pts.append((label, tuple(rows)))
        prob[s] = tuple(pts)

    ma = MarkovAutomaton(tuple(b.order), b.initial, tuple(prob), tuple(markov))
    return ma, frozenset(b.goals)


def _fmt(x: float) -> str:
    # 17 significant digits round-trip any binary64 value exactly.
    return format(x, ".17g")


def serialize(ma: MarkovAutomaton, goal: frozenset[int] = frozenset()) -> str:
    """Render an automaton back to model text.

    Transition blocks are emitted in the order a re-parse would discover
    the states (initial state, goal states, then targets as they are
    first mentioned), so `parse(serialize(x))` reproduces `x` exactly
    whenever `x`'s interning order matches that discovery order — in
    particular for everything `serialize` itself emits; other automata
    round-trip up to state renumbering.
    """
    order: list[int] = []
    seen: set[int] = set()

    def touch(s: int) -> None:
        if s not in seen:
            seen.add(s)
            order.append(s)

    def has_block(s: int) -> bool:
        return bool(ma.markov_edges[s]) or bool(ma.prob_transitions[s])

    touch(ma.initial)
    for g in sorted(goal):
        touch(g)

    out = ["#INITIAL", ma.states[ma.initial]]
    if goal:
        out.append("#GOALS")
        out.append(" ".join(ma.states[g] for g in sorted(goal)))
    out.append("#TRANSITIONS")

    # Cursors into `order` and into the leftovers: an entry skipped once
    # (emitted, or without a block) never becomes eligible again.
    emitted: set[int] = set()
    remaining = sum(1 for s in range(ma.n) if has_block(s))
    pos = leftover = 0
    while remaining:
        while pos < len(order) and (
            order[pos] in emitted or not has_block(order[pos])
        ):
            pos += 1
        if pos < len(order):
            pick = order[pos]
        else:  # disconnected leftovers, by ascending index
            while leftover in emitted or not has_block(leftover):
                leftover += 1
            pick = leftover
            touch(pick)
        if ma.markov_edges[pick]:
            out.append(f"{ma.states[pick]} !")
            for t, rate in ma.markov_edges[pick]:
                touch(t)
                out.append(f"* {ma.states[t]} {_fmt(rate)}")
        for label, dist in ma.prob_transitions[pick]:
            out.append(f"{ma.states[pick]} {label}")
            for t, p in dist:
                touch(t)
                out.append(f"* {ma.states[t]} {_fmt(p)}")
        emitted.add(pick)
        remaining -= 1
    return "\n".join(out) + "\n"
