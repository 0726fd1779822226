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
from .model import STATE_ID_RE, MarkovAutomaton, _total

_SECTIONS = ("#INITIAL", "#GOALS", "#TRANSITIONS")


def _intern(index: dict[str, int], order: list[str], name: str, lineno: int) -> int:
    """The index of state `name`; a new name is checked and numbered next."""
    s = index.get(name)
    if s is None:
        if not STATE_ID_RE.match(name):
            raise ParseError(lineno, f"invalid state id '{name}'")
        s = index[name] = len(order)
        order.append(name)
    return s


def _close(blocks, order, owner: int, label: str, rows, opened: int) -> None:
    """Check a finished block and file it under its state."""
    if not rows:
        raise ParseError(opened, f"block '{order[owner]} {label}' has no transitions")
    if label != "!":
        total = _total(rows)
        if abs(total - 1.0) > 1e-9:
            raise DistributionNotNormalized(order[owner], label, total, line=opened)
    own = blocks.setdefault(owner, {})
    if label in own:
        if label == "!":
            raise DuplicateMarkovianBlock(order[owner], line=opened)
        raise DuplicateAction(order[owner], label, line=opened)
    own[label] = rows


def parse(text: str) -> tuple[MarkovAutomaton, frozenset[int]]:
    """Parse model text into an automaton and its default goal set.

    States are interned in order of first appearance.  Raises the
    documented error classes with 1-based line numbers.

    The work is linear in the size of the text: each distinct state id and
    action label is matched against `STATE_ID_RE` once, at its first
    occurrence, and every later check is a dict or set lookup.
    """
    lines = text.splitlines()
    # `float` also reads digit separators and non-ASCII digits, which the
    # format does not define; in an all-ASCII text only the first can occur.
    ascii_text = text.isascii()
    if "%" in text:
        lines = [line.partition("%")[0] for line in lines]
    order: list[str] = []
    index: dict[str, int] = {}
    labels: set[str] = set()  # action labels already matched
    initial: int | None = None
    goals: set[int] = set()
    # per state: label -> [(target, number), ...], in order; "!" = Markovian
    blocks: dict[int, dict[str, list[tuple[int, float]]]] = {}
    section: str | None = None
    seen_sections: set[str] = set()
    # the open block: its state, label, rows and header line
    owner, label, rows, opened = 0, "", None, 0

    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "*" and section == "#TRANSITIONS":
            if rows is None:
                raise ParseError(lineno, "'*' line outside a transition block")
            try:
                _, name, number = tokens
            except ValueError:
                raise ParseError(lineno, "expected '* <state-id> <number>'") from None
            target = index.get(name)
            if target is None:
                target = _intern(index, order, name, lineno)
            try:
                if "_" in number or not (ascii_text or number.isascii()):
                    raise ValueError(number)
                value = float(number)
            except ValueError:
                raise ParseError(lineno, f"invalid number '{number}'") from None
            if label == "!":
                if not 0.0 < value < math.inf:
                    raise ParseError(lineno, f"rate {number} must be positive and finite")
            elif not 0.0 < value <= 1.0 + 1e-9:
                raise ParseError(lineno, f"probability {number} must be in (0,1]")
            rows.append((target, value))
            continue
        if head[0] == "#":
            if rows is not None:
                _close(blocks, order, owner, label, rows, opened)
                rows = None
            if head not in _SECTIONS:
                raise UnknownSection(lineno, head)
            if head in seen_sections:
                raise ParseError(lineno, f"section {head} appears twice")
            if len(tokens) > 1:
                raise ParseError(lineno, f"unexpected tokens after {head}")
            seen_sections.add(head)
            section = head
        elif section == "#TRANSITIONS":
            if rows is not None:
                _close(blocks, order, owner, label, rows, opened)
                rows = None
            if len(tokens) != 2:
                raise ParseError(lineno, "expected '<state-id> <label>'")
            owner = index.get(head)
            if owner is None:
                owner = _intern(index, order, head, lineno)
            label = tokens[1]
            if label != "!" and label not in labels:
                if not STATE_ID_RE.match(label):
                    raise ParseError(lineno, f"invalid action label '{label}'")
                labels.add(label)
            rows, opened = [], lineno
        elif section == "#GOALS":
            for name in tokens:
                goals.add(_intern(index, order, name, lineno))
        elif section == "#INITIAL":
            if len(tokens) != 1 or initial is not None:
                raise ParseError(lineno, "#INITIAL takes exactly one state id")
            initial = _intern(index, order, head, lineno)
        else:
            raise ParseError(lineno, "content before any section header")
    if rows is not None:
        _close(blocks, order, owner, label, rows, opened)

    if "#TRANSITIONS" not in seen_sections:
        raise ParseError(len(lines) + 1, "missing #TRANSITIONS section")
    if initial is None:
        raise ParseError(len(lines) + 1, "missing #INITIAL section")

    n = len(order)
    prob: list[tuple] = [()] * n
    markov: list[tuple] = [()] * n
    for s, own in blocks.items():
        edges = own.pop("!", None)
        if edges is not None:
            markov[s] = tuple(edges)
        prob[s] = tuple([(name, tuple(dist)) for name, dist in own.items()])

    ma = MarkovAutomaton(tuple(order), initial, tuple(prob), tuple(markov))
    return ma, frozenset(goals)


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
