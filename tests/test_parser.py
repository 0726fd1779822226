import random
import struct

import pytest

from mama import errors, parse, serialize, validate
from mama.model import MarkovAutomaton

from conftest import MODELS, random_ctmc, random_ma


def test_minimal_model():
    ma, goal = parse("#INITIAL\ns0\n#GOALS\ng\n#TRANSITIONS\ns0 !\n* g 2.0\n")
    assert ma.states == ("s0", "g")
    assert ma.initial == 0
    assert ma.markov_edges[0] == ((1, 2.0),)
    assert goal == {1}


def test_two_actions_same_state():
    text = """
#INITIAL
s3
#TRANSITIONS
s3 alpha
* s5 1.0
s3 beta
* s4 1.0
"""
    ma, goal = parse(text)
    assert goal == frozenset()
    labels = [label for label, _ in ma.prob_transitions[0]]
    assert labels == ["alpha", "beta"]


def test_comments_and_blank_lines():
    text = "% header\n#INITIAL\n  s0  % the start\n\n#TRANSITIONS\ns0 ! % block\n* s0 1.0\n"
    ma, _ = parse(text)
    assert ma.states == ("s0",)


def test_unnormalized_distribution_rejected():
    text = "#INITIAL\ns\n#TRANSITIONS\ns a\n* s 0.6\n* t 0.5\n"
    with pytest.raises(errors.DistributionNotNormalized) as info:
        parse(text)
    assert info.value.total == pytest.approx(1.1)
    assert info.value.line == 4


def test_error_line_numbers():
    with pytest.raises(errors.ParseError) as info:
        parse("#INITIAL\ns\n#TRANSITIONS\n* s 1.0\n")
    assert info.value.line == 4
    with pytest.raises(errors.UnknownSection) as info2:
        parse("#WEIRD\n")
    assert info2.value.line == 1
    with pytest.raises(errors.ParseError) as info3:
        parse("#INITIAL\ns\n#TRANSITIONS\ns !\n* t 0.0\n")
    assert info3.value.line == 5


def test_duplicate_blocks_rejected():
    base = "#INITIAL\ns\n#TRANSITIONS\n"
    with pytest.raises(errors.DuplicateMarkovianBlock):
        parse(base + "s !\n* t 1.0\ns !\n* u 1.0\n")
    with pytest.raises(errors.DuplicateAction):
        parse(base + "s a\n* t 1.0\ns a\n* u 1.0\n")


def test_duplicate_sections_rejected():
    with pytest.raises(errors.ParseError):
        parse("#INITIAL\ns\n#INITIAL\nt\n#TRANSITIONS\ns !\n* s 1.0\n")


def test_missing_sections_rejected():
    with pytest.raises(errors.ParseError):
        parse("#INITIAL\ns\n")
    with pytest.raises(errors.ParseError):
        parse("#TRANSITIONS\ns !\n* s 1.0\n")


@pytest.mark.parametrize("rate", ["inf", "-inf", "nan", "1e309"])
def test_non_finite_rate_rejected(rate):
    with pytest.raises(errors.ParseError) as info:
        parse(f"#INITIAL\ns\n#TRANSITIONS\ns !\n* t {rate}\n")
    assert info.value.line == 5


def test_scientific_notation():
    ma, _ = parse("#INITIAL\ns\n#TRANSITIONS\ns !\n* t 2.5e-3\n")
    assert ma.markov_edges[0][0][1] == 2.5e-3


def test_seventeen_digit_round_trip():
    ma = MarkovAutomaton.from_parts("s", markov={"s": [("g", 0.1)]})
    text = serialize(ma)
    assert "0.10000000000000001" in text
    again, _ = parse(text)
    rate = again.markov_edges[0][0][1]
    assert struct.pack("<d", rate) == struct.pack("<d", 0.1)


def test_bundled_models_round_trip():
    for path in sorted(MODELS.glob("*.ma")):
        ma, goal = parse(path.read_text())
        again, goal2 = parse(serialize(ma, goal))
        assert again == ma, path.name
        assert goal2 == goal, path.name


def test_empty_goals_section_omitted():
    ma, _ = parse("#INITIAL\ns\n#TRANSITIONS\ns !\n* s 1.0\n")
    assert "#GOALS" not in serialize(ma, frozenset())


def _by_names(ma, goal):
    """Name-keyed view of the transition structure (index independent)."""
    prob = {
        ma.states[s]: [
            (label, sorted((ma.states[t], p) for t, p in dist))
            for label, dist in ma.prob_transitions[s]
        ]
        for s in range(ma.n)
    }
    markov = {
        ma.states[s]: sorted((ma.states[t], r) for t, r in ma.markov_edges[s])
        for s in range(ma.n)
    }
    return (
        ma.states[ma.initial],
        prob,
        markov,
        sorted(ma.states[g] for g in goal),
    )


def test_random_round_trip():
    # serialize/parse is the identity up to state renumbering, and exact
    # on serialize's own output
    rng = random.Random(3)
    for case in range(60):
        vma, goal = random_ctmc(rng, max_states=12) if case % 2 else random_ma(rng)
        text = serialize(vma.ma, goal)
        m1, g1 = parse(text)
        assert _by_names(m1, g1) == _by_names(vma.ma, goal)
        assert serialize(m1, g1) == text
        m2, g2 = parse(serialize(m1, g1))
        assert m2 == m1 and g2 == g1


_HEAD = "#INITIAL\ns\n#TRANSITIONS\n"

# (source, error class, message, line).  A text source goes through
# `parse`, an automaton through `validate`; the line is the error's `line`
# attribute (None where the error has none).
ERROR_TABLE = {
    "invalid-state-id": (
        "#INITIAL\ns!\n#TRANSITIONS\ns !\n* s 1\n",
        errors.ParseError, "line 2: invalid state id 's!'", 2,
    ),
    "invalid-target-id": (
        _HEAD + "s !\n* t$ 1\n", errors.ParseError, "line 5: invalid state id 't$'", 5,
    ),
    "invalid-action-label": (
        _HEAD + "s a@b\n* s 1\n", errors.ParseError, "line 4: invalid action label 'a@b'", 4,
    ),
    "bad-number": (
        _HEAD + "s !\n* t 1.0x\n", errors.ParseError, "line 5: invalid number '1.0x'", 5,
    ),
    # `float` would read these as 1000, 0.5 and 12.
    "number-digit-separator": (
        _HEAD + "s !\n* t 1_000\n", errors.ParseError, "line 5: invalid number '1_000'", 5,
    ),
    "probability-digit-separator": (
        _HEAD + "s a\n* t 0.5_0\n* u 0.5\n",
        errors.ParseError, "line 5: invalid number '0.5_0'", 5,
    ),
    "number-non-ascii-digits": (
        _HEAD + "s !\n* t \u0661\u0662\n",
        errors.ParseError, "line 5: invalid number '\u0661\u0662'", 5,
    ),
    "number-fullwidth-digit": (
        _HEAD + "s !\n* t \uff11\n", errors.ParseError, "line 5: invalid number '\uff11'", 5,
    ),
    "probability-zero": (
        _HEAD + "s a\n* t 0\n* u 1\n",
        errors.ParseError, "line 5: probability 0 must be in (0,1]", 5,
    ),
    "probability-above-one": (
        _HEAD + "s a\n* t 1.5\n",
        errors.ParseError, "line 5: probability 1.5 must be in (0,1]", 5,
    ),
    "star-line-2-tokens": (
        _HEAD + "s !\n* t\n", errors.ParseError, "line 5: expected '* <state-id> <number>'", 5,
    ),
    "star-line-4-tokens": (
        _HEAD + "s !\n* t 1 2\n",
        errors.ParseError, "line 5: expected '* <state-id> <number>'", 5,
    ),
    "block-header-1-token": (
        _HEAD + "s\n* t 1\n", errors.ParseError, "line 4: expected '<state-id> <label>'", 4,
    ),
    "block-header-3-tokens": (
        _HEAD + "s a b\n* t 1\n",
        errors.ParseError, "line 4: expected '<state-id> <label>'", 4,
    ),
    "tokens-after-section": (
        "#INITIAL\ns\n#GOALS s\n#TRANSITIONS\ns !\n* s 1\n",
        errors.ParseError, "line 3: unexpected tokens after #GOALS", 3,
    ),
    "initial-two-ids": (
        "#INITIAL\ns t\n#TRANSITIONS\ns !\n* t 1\n",
        errors.ParseError, "line 2: #INITIAL takes exactly one state id", 2,
    ),
    "content-before-section": (
        "% comment\ns !\n#INITIAL\ns\n",
        errors.ParseError, "line 2: content before any section header", 2,
    ),
    "empty-block": (
        _HEAD + "s a\ns b\n* t 1\n",
        errors.ParseError, "line 4: block 's a' has no transitions", 4,
    ),
    "empty-last-block": (
        _HEAD + "s !\n", errors.ParseError, "line 4: block 's !' has no transitions", 4,
    ),
    "duplicate-markovian-block": (
        _HEAD + "s !\n* t 1\nt !\n* s 1\ns !\n* u 1\n",
        errors.DuplicateMarkovianBlock, "state 's' has more than one '!' block (line 8)", 8,
    ),
    "duplicate-action": (
        _HEAD + "s a\n* t 1\ns b\n* t 1\ns a\n* u 1\n",
        errors.DuplicateAction, "duplicate action 'a' at state 's' (line 8)", 8,
    ),
    "duplicate-section": (
        "#INITIAL\ns\n#TRANSITIONS\ns !\n* s 1\n#INITIAL\nt\n",
        errors.ParseError, "line 6: section #INITIAL appears twice", 6,
    ),
    "missing-transitions": (
        "#INITIAL\ns\n", errors.ParseError, "line 3: missing #TRANSITIONS section", 3,
    ),
    "missing-initial": (
        "#TRANSITIONS\ns !\n* s 1\n% end\n",
        errors.ParseError, "line 5: missing #INITIAL section", 5,
    ),
    # Two faults: the first error in line order wins.  A block's own
    # checks (empty, unnormalized, repeated) run when the next line
    # closes it, after the checks of its '*' lines.
    "unnormalized-block-before-bad-number": (
        _HEAD + "s a\n* t 0.5\nt !\n* s 1x\n",
        errors.DistributionNotNormalized,
        "distribution of action 'a' at state 's' sums to 0.5, expected 1 (line 4)", 4,
    ),
    "empty-block-before-invalid-id": (
        _HEAD + "s a\nt$ !\n* s 1\n",
        errors.ParseError, "line 4: block 's a' has no transitions", 4,
    ),
    "bad-probability-before-later-duplicate-action": (
        _HEAD + "s a\n* t 1.5\ns b\n* t 1\ns a\n* t 1\n",
        errors.ParseError, "line 5: probability 1.5 must be in (0,1]", 5,
    ),
    "bad-probability-inside-duplicate-action": (
        _HEAD + "s a\n* t 1\ns a\n* t 1.5\n",
        errors.ParseError, "line 7: probability 1.5 must be in (0,1]", 7,
    ),
    "duplicate-markovian-block-before-bad-rate": (
        _HEAD + "s !\n* t 1\ns !\n* t 2\nt !\n* s 0\n",
        errors.DuplicateMarkovianBlock, "state 's' has more than one '!' block (line 6)", 6,
    ),
    "unnormalized-duplicate-action": (
        _HEAD + "s a\n* t 1\ns a\n* t 0.5\n",
        errors.DistributionNotNormalized,
        "distribution of action 'a' at state 's' sums to 0.5, expected 1 (line 6)", 6,
    ),
    "validate-target-out-of-range-before-later-bad-probability": (
        MarkovAutomaton(("s", "t"), 0, ((("a", ((5, 1.0),)),), (("b", ((0, 1.5),)),)), ((), ())),
        errors.UnknownState, "unknown state index 5", None,
    ),
    "validate-target-out-of-range-with-bad-probability": (
        MarkovAutomaton(("s", "t"), 0, ((("a", ((5, 1.5),)),), ()), ((), ())),
        errors.UnknownState, "unknown state index 5", None,
    ),
    # Structural checks cover the whole automaton before any exit rate is
    # summed, so the later state's distribution wins over the earlier
    # state's infinite exit rate.
    "validate-distribution-before-exit-rate": (
        MarkovAutomaton.from_parts(
            "s",
            prob={"t": [("a", [("u", 0.5)])]},
            markov={"s": [("t", 1e308), ("u", 1e308)]},
        ),
        errors.DistributionNotNormalized,
        "distribution of action 'a' at state 't' sums to 0.5, expected 1", None,
    ),
    # A target given by index names the index, not a state called "2".
    "validate-target-index-out-of-range": (
        MarkovAutomaton(("s", "t"), 0, ((), ()), (((2, 1.0),), ((0, 1.0),))),
        errors.UnknownState, "unknown state index 2", None,
    ),
    "validate-initial-index-out-of-range": (
        MarkovAutomaton(("s",), 1, ((),), (((0, 1.0),),)),
        errors.UnknownState, "unknown state index 1", None,
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_TABLE))
def test_error_table(case):
    source, cls, message, line = ERROR_TABLE[case]
    with pytest.raises(errors.MamaError) as info:
        if isinstance(source, str):
            parse(source)
        else:
            validate(source)
    assert type(info.value) is cls
    assert str(info.value) == message
    assert getattr(info.value, "line", None) == line
