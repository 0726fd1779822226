"""The flat loader equals the per-block tuple loader it replaced.

`parse` reads a model straight into flat blocks and `validate` checks and
transforms them with array operations.  `conftest.reference_parse` and
`conftest.reference_validate` are the per-block tuple reader and the
per-state validation that came before.  On a corpus of the bundled
models, the benchmark families at seeds 1-3, 150 serialised seeded random
draws and about 300 seeded line-level mutants of those texts (lines
deleted, duplicated, swapped or replaced by garbage, and blocks
repeated), both give the same values, floats compared by `float.hex`, or
the same error: class, message, line and total.  Automata built from
tables, perturbed in the ways `validate` rejects, are compared the same
way.
"""

from __future__ import annotations

import functools
import math
import random
import sys

import numpy as np
import pytest

from mama import MarkovAutomaton, errors, parse, serialize, validate
from mama.model import flat

from conftest import MODELS, RefMA, random_ma, reference_parse, reference_validate

PERFBENCH = MODELS.parent / "perfbench"
MUTANTS = 300


def _hexed(x):
    """`x` with every float replaced by its `float.hex`, sets sorted."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return _hexed(x.tolist())
    if isinstance(x, (set, frozenset)):
        return tuple(sorted(x))
    if isinstance(x, (tuple, list)):
        return tuple(map(_hexed, x))
    return x


def _error(exc: errors.MamaError) -> tuple:
    return (type(exc), str(exc), getattr(exc, "line", None), _hexed(getattr(exc, "total", None)))


def _tables(ma) -> tuple:
    return (ma.states, ma.initial, ma.prob_transitions, ma.markov_edges)


def _fields(closed, ms, ps, exit_rate, branch, lambda_max, unreachable, warnings, kernel):
    return _hexed((_tables(closed), ms, ps, exit_rate, branch, lambda_max, unreachable,
                   warnings, kernel))


def _flat_validate(ma) -> tuple:
    try:
        vma = validate(ma)
    except errors.MamaError as exc:
        return _error(exc)
    kernel = flat(vma)
    return _fields(
        vma.ma, vma.ms, vma.ps, vma.exit_rate, vma.branch, vma.lambda_max, vma.unreachable,
        vma.warnings,
        (kernel.starts, kernel.succ_starts, kernel.succ_idx, kernel.succ_p, kernel.label),
    )


def _reference_validate(ma) -> tuple:
    try:
        ref = reference_validate(ma)
    except errors.MamaError as exc:
        return _error(exc)
    row_start, entry_start, succ, prob, label = ref["csr"]
    return _fields(
        ref["ma"], ref["ms"], ref["ps"], ref["exit_rate"], ref["branch"], ref["lambda_max"],
        ref["unreachable"], ref["warnings"],
        (row_start[:-1], entry_start[:-1], succ, prob, label),
    )


def _load(text: str, reader, check) -> tuple:
    """The parsed tables and goals and the validated fields of `text`, or
    the first error."""
    try:
        ma, goal = reader(text)
    except errors.MamaError as exc:
        return _error(exc)
    return _hexed((_tables(ma), goal)), check(ma)


@functools.cache
def _texts() -> tuple[tuple[str, str], ...]:
    texts = [(path.name, path.read_text(encoding="utf-8")) for path in sorted(MODELS.glob("*.ma"))]
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
    finally:
        sys.path.remove(str(PERFBENCH))
    texts += [(f"{name}-{seed}", gen.FAMILIES[name](seed).to_text())
              for name in ("random-ma", "bd-chain", "many-mecs") for seed in (1, 2, 3)]
    rng = random.Random(11)
    for i in range(150):
        vma, goal = random_ma(rng)
        texts.append((f"draw-{i:03d}", serialize(vma.ma, goal)))
    return tuple(texts)


_NUMBERS = ("0.5", "1", "1.0", "0", "-1", "2.5", "1e309", "nan", "inf", "1_000", "١",
            "0.3", "1.0000000001", "1e-320", "abc", "0x1")


def _garbage(rng: random.Random, names: list[str]) -> str:
    s, t = rng.choice(names), rng.choice(names + ["new", "t$"])
    return rng.choice((
        f"* {t} {rng.choice(_NUMBERS)}",
        f"* {t} {rng.choice(_NUMBERS)}",
        f"{s} {rng.choice(('a0', 'a1', 'a2', '!', '!', 'b@'))}",
        f"{s} !",
        f"* {t}",
        "*",
        f"{s}",
        f"{s} a0 a1",
        f"* {t} 0.5 0.5",
        rng.choice(("#INITIAL", "#GOALS", "#TRANSITIONS", "#OTHER", "#GOALS x")),
        f"% {s}",
        "",
        f"{s} !\n* {t} 2.0\n* {t} 0.5",
        f"{s} a9\n* {t} 1",
        f"{s} a0\n* {t} 0.5\n* {s} 0.5",
    ))


def _mutants() -> list[tuple[str, str]]:
    rng = random.Random(2026)
    texts = _texts()
    out = []
    for i in range(MUTANTS):
        name, text = rng.choice(texts)
        lines = text.splitlines()
        names = sorted({tok for line in lines for tok in line.split()[:2]} - {"*"}) or ["s"]
        for _ in range(rng.randint(1, 2)):
            at = rng.randrange(len(lines) + 1)
            op = rng.choice(("delete", "delete", "duplicate", "block", "swap", "swap", "garbage"))
            if op == "garbage" or not lines:
                lines[at:at] = _garbage(rng, names).split("\n")
            elif op == "block":  # a line and the '*' lines after it, again
                j = k = rng.randrange(len(lines))
                while k + 1 < len(lines) and lines[k + 1].startswith("*"):
                    k += 1
                lines[k + 1:k + 1] = lines[j:k + 1]
            elif op == "delete":
                del lines[min(at, len(lines) - 1)]
            elif op == "duplicate":
                lines.insert(at, lines[rng.randrange(len(lines))])
            else:
                j, k = rng.randrange(len(lines)), rng.randrange(len(lines))
                lines[j], lines[k] = lines[k], lines[j]
        out.append((f"mutant-{i:03d}-of-{name}", "\n".join(lines) + "\n"))
    return out


def test_flat_loader_equals_the_tuple_loader():
    corpus = list(_texts()) + _mutants()
    errored = 0
    for name, text in corpus:
        got = _load(text, parse, _flat_validate)
        want = _load(text, reference_parse, _reference_validate)
        assert got == want, name
        errored += isinstance(got[0], type)
    # The mutants reach the errors as well as the answers.
    assert 100 < errored < len(corpus) - 150


@pytest.mark.parametrize("states", [2, 12])
def test_rates_summing_to_infinity_fail_alike(states):
    # Numpy would warn where the builtin `sum` overflows silently.
    text = "#INITIAL\ns0\n#TRANSITIONS\n" + "".join(
        f"s{i} !\n* s{(i + 1) % states} 1e308\n* s{i} 1e308\n" for i in range(states))
    got = _load(text, parse, _flat_validate)
    assert got == _load(text, reference_parse, _reference_validate)
    assert got[1][0] is errors.NonFiniteRate


def _perturbed(rng: random.Random, ma) -> RefMA:
    """`ma` with one to three faults of the kinds `validate` rejects, or
    with the rate edges, self-loops and empty states it accepts."""
    n = ma.n
    prob = [list(map(list, pts)) for pts in ma.prob_transitions]
    markov = [list(edges) for edges in ma.markov_edges]
    initial = ma.initial
    for _ in range(rng.randint(1, 3)):
        s = rng.randrange(n)
        kind = rng.choice(("target", "probability", "rate", "duplicate", "empty", "edges",
                           "deadlock", "initial", "sum"))
        if kind == "initial":
            initial = rng.choice((-1, n, initial))
        elif kind == "deadlock":
            prob[s], markov[s] = [], []
        elif kind == "edges":
            markov[s] = markov[s] + [(rng.randrange(n), rng.choice((0.5, 2.0, 1e308)))] * 2
        elif prob[s] and kind in ("target", "probability", "duplicate", "empty", "sum"):
            row = rng.randrange(len(prob[s]))
            label, dist = prob[s][row]
            dist = list(dist)
            if kind == "duplicate":
                prob[s].append([label, dist])
            elif kind == "empty":
                prob[s][row][1] = []
            elif kind == "sum":
                prob[s][row][1] = dist + [(rng.randrange(n), 0.25)]
            else:
                i = rng.randrange(len(dist))
                t, p = dist[i]
                if kind == "target":
                    dist[i] = (rng.choice((-1, n, n + 3)), p)
                else:
                    dist[i] = (t, rng.choice((0.0, 1.5, -0.25, math.nan)))
                prob[s][row][1] = dist
        elif markov[s]:
            i = rng.randrange(len(markov[s]))
            t, r = markov[s][i]
            if kind == "target":
                markov[s][i] = (rng.choice((-1, n)), r)
            else:
                markov[s][i] = (t, rng.choice((0.0, -1.0, math.inf, math.nan, 1e308)))
    return RefMA(
        ma.states, initial,
        tuple(tuple((label, tuple(dist)) for label, dist in pts) for pts in prob),
        tuple(map(tuple, markov)),
    )


def test_flat_validation_of_tables_equals_the_per_state_loop():
    rng = random.Random(7)
    texts = _texts()
    checked = errors_seen = 0
    for _ in range(300):
        name, text = rng.choice(texts[:6] + texts[15:])
        ma, _ = reference_parse(text)
        table = _perturbed(rng, ma)
        got = _flat_validate(MarkovAutomaton(*table))
        want = _reference_validate(table)
        assert got == want, name
        checked += 1
        errors_seen += isinstance(got[0], type)
    assert checked == 300 and 100 < errors_seen < 290


@pytest.mark.parametrize("name", ["two_mecs.ma", "queue.ma", "random-ma-1"])
def test_validating_the_closed_automaton_again_changes_nothing_but_rounding(name):
    text = dict(_texts())[name]
    vma = validate(parse(text)[0])
    again = validate(vma.ma)
    assert (again.ms, again.ps, again.unreachable) == (vma.ms, vma.ps, vma.unreachable)
    assert _flat_validate(vma.ma) == _reference_validate(vma.ma)


def test_automata_are_equal_by_their_tables():
    ma, _ = parse(dict(_texts())["erlang2.ma"])
    again = MarkovAutomaton(*_tables(ma))
    assert again == ma and hash(again) == hash(ma)
    assert hash(validate(ma)) == hash(validate(again))
    # The goal state's deadlock becomes a self-loop.
    assert ma != _tables(ma) and ma != validate(ma).ma
