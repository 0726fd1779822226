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

import numpy as np

from .errors import (
    DistributionNotNormalized,
    DuplicateAction,
    DuplicateMarkovianBlock,
    MamaError,
    ParseError,
    UnknownSection,
)
from .model import BOT, DIST_TOLERANCE, STATE_ID_RE, MarkovAutomaton, _repeats, _sums

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


def _check_blocks(ma: MarkovAutomaton, opened: list[int], closed: int) -> np.ndarray:
    """The sums of the first `closed` blocks of `ma`, after raising the
    error of the first of them that is empty, whose probabilities do not
    sum to 1, or that repeats a block of its state, in that order of
    precedence.  A block is checked when the next line closes it, so its
    error comes before any on later lines."""
    bounds = ma.start[:closed + 1]
    sizes = np.diff(bounds)
    totals = _sums(ma.number, bounds)
    unnormalized = (ma.action[:closed] != 0) & (np.abs(totals - 1.0) > DIST_TOLERANCE)
    repeat = _repeats(ma.owner[:closed] * len(ma.actions) + ma.action[:closed])
    bad = (sizes == 0) | unnormalized | repeat
    if not bad.any():
        return totals
    b = int(np.argmax(bad))
    name, action, line = ma.states[ma.owner[b]], ma.actions[ma.action[b]], opened[b]
    if not sizes[b]:
        raise ParseError(line, f"block '{name} {action}' has no transitions")
    if unnormalized[b]:
        raise DistributionNotNormalized(name, action, totals[b].item(), line=line)
    if action == BOT:
        raise DuplicateMarkovianBlock(name, line=line)
    raise DuplicateAction(name, action, line=line)


def parse(text: str) -> tuple[MarkovAutomaton, frozenset[int]]:
    """Parse model text into an automaton and its default goal set.

    States are interned in order of first appearance.  Raises the
    documented error classes with 1-based line numbers.

    The work is linear in the size of the text: each distinct state id and
    action label is matched against `STATE_ID_RE` once, at its first
    occurrence, and every later check is a dict or set lookup.  Each line
    is checked as it is read, and its entries go straight into the flat
    blocks of a `MarkovAutomaton`; the checks of whole blocks (empty,
    unnormalized, repeated) run once over all of them, and over those
    closed before a failing line, so the first error in line order wins.
    """
    lines = text.splitlines()
    if "%" in text:
        lines = [line.partition("%")[0] for line in lines]
    # `float` also reads digit separators and non-ASCII digits, which the
    # format does not define; only a text holding either needs the check.
    careful = "_" in text or not text.isascii()
    limit = 1.0 + DIST_TOLERANCE
    order: list[str] = []
    index: dict[str, int] = {}
    actions = {BOT: 0}  # action labels already matched, by number
    initial: int | None = None
    goals: set[int] = set()
    # Per block its state, action, header line and first entry; per entry
    # its target and number.
    owner, action, opened, start, target, number = [], [], [], [], [], []
    section: str | None = None
    seen_sections: set[str] = set()
    markov = None  # whether the open block is Markovian; None if none is open
    failure = None
    try:
        for lineno, line in enumerate(lines, start=1):
            tokens = line.split()
            if not tokens:
                continue
            head = tokens[0]
            if head == "*" and section == "#TRANSITIONS":
                if markov is None:
                    raise ParseError(lineno, "'*' line outside a transition block")
                try:
                    _, name, token = tokens
                except ValueError:
                    raise ParseError(lineno, "expected '* <state-id> <number>'") from None
                t = index.get(name)
                if t is None:
                    t = _intern(index, order, name, lineno)
                try:
                    if careful and ("_" in token or not token.isascii()):
                        raise ValueError(token)
                    value = float(token)
                except ValueError:
                    raise ParseError(lineno, f"invalid number '{token}'") from None
                if markov:
                    if not 0.0 < value < math.inf:
                        raise ParseError(lineno, f"rate {token} must be positive and finite")
                elif not 0.0 < value <= limit:
                    raise ParseError(lineno, f"probability {token} must be in (0,1]")
                target.append(t)
                number.append(value)
                continue
            markov = None  # any other line closes the open block
            if head[0] == "#":
                if head not in _SECTIONS:
                    raise UnknownSection(lineno, head)
                if head in seen_sections:
                    raise ParseError(lineno, f"section {head} appears twice")
                if len(tokens) > 1:
                    raise ParseError(lineno, f"unexpected tokens after {head}")
                seen_sections.add(head)
                section = head
            elif section == "#TRANSITIONS":
                if len(tokens) != 2:
                    raise ParseError(lineno, "expected '<state-id> <label>'")
                s = index.get(head)
                if s is None:
                    s = _intern(index, order, head, lineno)
                a = actions.get(tokens[1])
                if a is None:
                    if not STATE_ID_RE.match(tokens[1]):
                        raise ParseError(lineno, f"invalid action label '{tokens[1]}'")
                    a = actions[tokens[1]] = len(actions)
                markov = not a
                owner.append(s)
                action.append(a)
                opened.append(lineno)
                start.append(len(target))
            elif section == "#GOALS":
                for name in tokens:
                    goals.add(_intern(index, order, name, lineno))
            elif section == "#INITIAL":
                if len(tokens) != 1 or initial is not None:
                    raise ParseError(lineno, "#INITIAL takes exactly one state id")
                initial = _intern(index, order, head, lineno)
            else:
                raise ParseError(lineno, "content before any section header")
    except MamaError as exc:
        failure = exc
    start.append(len(target))
    ma = MarkovAutomaton._of(tuple(order), initial, tuple(actions), owner, action, start,
                             target, number)
    closed = len(owner) - (failure is not None and markov is not None)
    ma._totals = _check_blocks(ma, opened, closed)
    if failure is not None:
        raise failure

    if "#TRANSITIONS" not in seen_sections:
        raise ParseError(len(lines) + 1, "missing #TRANSITIONS section")
    if initial is None:
        raise ParseError(len(lines) + 1, "missing #INITIAL section")
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
    order = list(dict.fromkeys([ma.initial, *sorted(goal)]))
    seen, owners = set(order), set(ma.owner.tolist())
    out = ["#INITIAL", ma.states[ma.initial]]
    if goal:
        out += ["#GOALS", " ".join(ma.states[g] for g in sorted(goal))]
    out.append("#TRANSITIONS")
    done = 0
    # The discovered states in order, then each state not discovered by
    # then, by ascending index, with the states it leads to.
    for extra in range(-1, ma.n):
        if extra not in seen and extra in owners:
            seen.add(extra)
            order.append(extra)
        while done < len(order):
            s = order[done]
            done += 1
            edges = ma.markov_edges[s]
            for label, dist in (((BOT, edges),) if edges else ()) + ma.prob_transitions[s]:
                out.append(f"{ma.states[s]} {label}")
                for t, x in dist:
                    if t not in seen:
                        seen.add(t)
                        order.append(t)
                    out.append(f"* {ma.states[t]} {_fmt(x)}")
    return "\n".join(out) + "\n"
