import math
import random

import pytest

from mama import errors, make_absorbing, oracle, validate
from mama.model import MarkovAutomaton

from conftest import MODELS, load_model, mk, random_ctmc, random_ma


def test_single_edge_model():
    vma = validate(mk("s", markov={"s": [("g", 2.0)]}))
    s, g = vma.index_of("s"), vma.index_of("g")
    assert vma.exit_rate[s] == 2.0
    assert dict(vma.branch[s]) == {g: 1.0}
    # g had no transitions: normalized to a Markovian self-loop
    assert g in vma.ms
    assert dict(vma.branch[g]) == {g: 1.0}


def test_parallel_edges_summed():
    vma = validate(
        mk("s", markov={"s": [("a", 1.0), ("a", 2.0), ("b", 3.0)]})
    )
    s = vma.index_of("s")
    assert vma.exit_rate[s] == pytest.approx(6.0, abs=0)
    branch = dict(vma.branch[s])
    assert branch[vma.index_of("a")] == pytest.approx(0.5, abs=1e-15)
    assert branch[vma.index_of("b")] == pytest.approx(0.5, abs=1e-15)


def test_maximal_progress_drops_markovian_edges():
    vma = validate(
        mk(
            "s",
            prob={"s": [("tau1", [("a", 1.0)])]},
            markov={"s": [("b", 4.0)]},
        )
    )
    s = vma.index_of("s")
    assert s in vma.ps
    assert vma.ma.markov_edges[s] == ()
    assert any("maximal progress" in w for w in vma.warnings)


def test_lambda_max():
    vma = validate(mk("s", markov={"s": [("t", 2.0)], "t": [("s", 7.5)]}))
    assert vma.lambda_max == 7.5


def test_unreachable_states_flagged():
    vma = validate(
        mk("s", markov={"s": [("s", 1.0)], "u": [("s", 1.0)]}, states=["s", "u"])
    )
    assert vma.index_of("u") in vma.unreachable
    assert any("unreachable" in w for w in vma.warnings)


def test_validation_errors():
    with pytest.raises(errors.EmptyModel):
        validate(MarkovAutomaton((), 0, (), ()))
    with pytest.raises(errors.DistributionNotNormalized):
        validate(mk("s", prob={"s": [("a", [("s", 0.6), ("t", 0.5)])]}))
    with pytest.raises(errors.NonPositiveRate):
        validate(mk("s", markov={"s": [("t", -1.0)]}))
    with pytest.raises(errors.DuplicateAction):
        validate(
            mk("s", prob={"s": [("a", [("s", 1.0)]), ("a", [("t", 1.0)])]})
        )


def test_non_finite_rates_rejected():
    with pytest.raises(errors.NonFiniteRate):
        validate(mk("s", markov={"s": [("t", math.inf)]}))
    with pytest.raises(errors.NonFiniteRate):  # maximal progress would drop it
        validate(mk("s", prob={"s": [("a", [("t", 1.0)])]}, markov={"s": [("t", math.inf)]}))
    with pytest.raises(errors.NonFiniteRate) as info:
        validate(mk("s", markov={"s": [("t", 1e308), ("s", 1e308)]}))
    assert info.value.rate == math.inf


def test_distribution_renormalized_exactly():
    skew = 1.0 + 5e-10  # inside the acceptance tolerance
    vma = validate(
        mk("s", prob={"s": [("a", [("x", 0.25 * skew), ("y", 0.75 * skew)])]})
    )
    s = vma.index_of("s")
    label, dist = vma.ma.prob_transitions[s][0]
    assert sum(p for _, p in dist) == 1.0


def test_row_stochastic_branching():
    rng = random.Random(7)
    for _ in range(25):
        vma, _ = random_ctmc(rng, max_states=12)
        for s in vma.ms:
            assert abs(sum(p for _, p in vma.branch[s]) - 1.0) <= 1e-12


def test_validate_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        vma, _ = random_ctmc(rng, max_states=10)
        again = validate(vma.ma)
        assert again.ma == vma.ma
        assert again.exit_rate == vma.exit_rate
        assert again.branch == vma.branch
        assert (again.ms, again.ps) == (vma.ms, vma.ps)


def test_make_absorbing_empty_goal_is_identity(two_mecs):
    vma, _ = two_mecs
    assert make_absorbing(vma, frozenset()) is vma


def test_make_absorbing_rewires_goal_states(two_mecs):
    vma, goal = two_mecs
    absorbed = make_absorbing(vma, goal)
    (g,) = goal
    assert absorbed.ma.markov_edges[g] == ((g, 1.0),)
    assert absorbed.ma.prob_transitions[g] == ()
    assert absorbed.exit_rate[g] == 1.0
    # idempotent
    assert make_absorbing(absorbed, goal).ma == absorbed.ma


def test_make_absorbing_unknown_state(two_mecs):
    vma, _ = two_mecs
    with pytest.raises(errors.UnknownState):
        make_absorbing(vma, {99})


def test_make_absorbing_queue_model():
    # the busy state loses its service edge and becomes a unit self-loop
    from conftest import load_model

    ma, goal = load_model("queue.ma")
    vma = validate(ma)
    (g,) = goal
    assert vma.exit_rate[g] == 2.0
    absorbed = make_absorbing(vma, goal)
    assert absorbed.ma.markov_edges[g] == ((g, 1.0),)
    assert absorbed.exit_rate[g] == 1.0
    untouched = [s for s in range(vma.n) if s != g]
    for s in untouched:
        assert absorbed.ma.markov_edges[s] == vma.ma.markov_edges[s]
        assert absorbed.ma.prob_transitions[s] == vma.ma.prob_transitions[s]


def _absorbed_automaton(vma, goal):
    """The automaton of `vma` with each goal state's rows replaced by a
    rate-1 self-loop, before validation."""
    prob = [() if s in goal else pts for s, pts in enumerate(vma.ma.prob_transitions)]
    markov = [
        ((s, 1.0),) if s in goal else edges
        for s, edges in enumerate(vma.ma.markov_edges)
    ]
    return MarkovAutomaton(vma.ma.states, vma.ma.initial, tuple(prob), tuple(markov))


def _absorbing_cases():
    for path in sorted(MODELS.glob("*.ma")):
        ma, goal = load_model(path.name)
        yield validate(ma), goal
    rng = random.Random(11)
    for _ in range(150):
        yield random_ma(rng, max_states=10, max_actions=3)


def test_make_absorbing_equals_validating_the_absorbed_automaton():
    # make_absorbing derives the absorbed model from the validated fields
    # instead of validating again; every field, warnings included, must be
    # what validating the absorbed automaton gives.
    checked = 0
    for vma, drawn in _absorbing_cases():
        for goal in (drawn, frozenset(), frozenset(range(vma.n))):
            absorbed = make_absorbing(vma, goal)
            if goal:
                assert absorbed == validate(_absorbed_automaton(vma, goal)), (goal, vma.ma)
            else:
                assert absorbed is vma
            checked += 1
    assert checked == 3 * 156


def test_absorbing_preserves_expected_time():
    # hitting times only depend on the model before the first goal visit
    rng = random.Random(23)
    for _ in range(20):
        vma, goal = random_ctmc(rng, max_states=10)
        before = oracle.ctmc_hitting_time(vma, goal)
        after = oracle.ctmc_hitting_time(make_absorbing(vma, goal), goal)
        for x, y in zip(before, after):
            if math.isinf(x) or math.isinf(y):
                assert math.isinf(x) == math.isinf(y)
            else:
                assert x == pytest.approx(y, abs=1e-9)


def test_index_of_maps_every_name_and_rejects_unknown(two_mecs):
    vma, _ = two_mecs
    for i, name in enumerate(vma.states):
        assert vma.index_of(name) == i
        assert vma.ma.index_of(name) == i
    with pytest.raises(errors.UnknownState):
        vma.index_of("nowhere")


def test_unknown_state_names_a_name_or_an_index(two_mecs):
    vma, _ = two_mecs
    # A name lookup quotes the name, even one that looks like an index ...
    for name in ("nowhere", "3"):
        with pytest.raises(errors.UnknownState) as info:
            vma.index_of(name)
        assert str(info.value) == f"unknown state '{name}'"
        assert info.value.state == name
    # ... and an index out of range says that it is an index.
    with pytest.raises(errors.UnknownState) as info:
        make_absorbing(vma, {vma.n})
    assert str(info.value) == f"unknown state index {vma.n}"
    assert info.value.state == vma.n
