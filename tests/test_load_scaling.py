"""Loading a model is linear in the size of its text.

`parse` checks each distinct state id and action label once and finds
repeated goals and repeated block labels by lookup, not by scanning what
it has read so far.  The two models below are quadratic traps for a list
scan (about 3.5 s and 1.2 s of CPU time with one); they must load in
under a second of CPU time and still give the goal set, block order and
duplicate-label error the format defines.
"""

from __future__ import annotations

import time

import pytest

from mama import errors, parse, serialize, validate

from conftest import MODELS

PERFBENCH = MODELS.parent / "perfbench"

CPU_BUDGET_S = 1.0


def _load(text: str):
    """`parse` then `validate`, and the CPU seconds they took."""
    start = time.process_time()
    ma, goal = parse(text)
    vma = validate(ma)
    return vma, goal, time.process_time() - start


def test_twenty_thousand_goals_load_in_linear_time():
    # 15 000 distinct goal ids, 5 000 of them named twice, ten per line.
    names = [f"g{i % 15_000}" for i in range(20_000)]
    rows = [" ".join(names[i:i + 10]) for i in range(0, len(names), 10)]
    text = "#INITIAL\ns\n#GOALS\n" + "\n".join(rows) + "\n#TRANSITIONS\ns !\n* s 1\n"
    vma, goal, cpu = _load(text)
    assert cpu < CPU_BUDGET_S
    assert vma.n == 15_001
    assert sorted(vma.name(g) for g in goal) == sorted(set(names))


def _blocks(labels: list[str]) -> str:
    body = "".join(f"s {label}\n* t 1\n" for label in labels)
    return "#INITIAL\ns\n#TRANSITIONS\n" + body


def test_eight_thousand_blocks_on_one_state_load_in_linear_time():
    labels = [f"a{i}" for i in range(8_000)]
    vma, _, cpu = _load(_blocks(labels))
    assert cpu < CPU_BUDGET_S
    assert [label for label, _ in vma.ma.prob_transitions[0]] == labels


def test_repeated_label_among_eight_thousand_blocks_is_reported_at_its_line():
    labels = [f"a{i}" for i in range(8_000)] + ["a4321"]
    start = time.process_time()
    with pytest.raises(errors.DuplicateAction) as info:
        parse(_blocks(labels))
    assert time.process_time() - start < CPU_BUDGET_S
    # Three header lines, then two lines per block: the repeat opens
    # block 8 001 on line 3 + 2 * 8 000 + 1.
    assert info.value.line == 16_004
    assert str(info.value) == "duplicate action 'a4321' at state 's' (line 16004)"


def _view(initial, goal, names, markov, actions):
    """A model keyed by state name, independent of the state numbering."""
    return (
        names[initial],
        sorted(names[g] for g in goal),
        {
            names[s]: (
                [(names[t], r) for t, r in markov[s]],
                [(label, [(names[t], p) for t, p in dist]) for label, dist in actions[s]],
            )
            for s in range(len(names))
        },
    )


def _model_view(ma, goal):
    return _view(ma.initial, goal, ma.states, ma.markov_edges, ma.prob_transitions)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["random-ma", "bd-chain", "many-mecs"])
def test_benchmark_families_round_trip(monkeypatch, workload, seed):
    # The benchmark's generator is only read: it gives each family in its
    # own representation, which the parsed model must match by name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen

    fam = gen.FAMILIES[workload](seed)
    ma, goal = parse(fam.to_text())
    assert _model_view(ma, goal) == _view(0, fam.goal, fam.names, fam.markov, fam.actions)
    # `serialize` renumbers the states in discovery order; from then on
    # the round trip is exact.
    again, goal2 = parse(serialize(ma, goal))
    assert _model_view(again, goal2) == _model_view(ma, goal)
    third, goal3 = parse(serialize(again, goal2))
    assert third == again
    assert goal3 == goal2
