"""The end-component quotient shared by expected time and long-run average.

Both analyses merge each end component into one gate that carries the
actions leaving it, solve the quotient SSP, and map the chosen gate label
back to the member that plays it.  These tests check the witness policies
that come back through that mapping against exact evaluations of the
induced chains.
"""

from __future__ import annotations

import math
import random

import pytest

from mama import (
    build_ssp_et,
    expected_time,
    lra,
    make_absorbing,
    oracle,
    parse,
    solve_ssp,
    validate,
)
from mama.graph import _refine_end_components, mecs
from mama.mdpsolve import SspInstance, collapse_end_components
from mama.model import BOT

from conftest import SspRow, chain_absorption_hitting, random_ma, ssp_instance, ssp_rows

# x and x.y form an unreachable zero-time cycle.  Their exits x/y.z and
# x.y/z both print as "x.y.z"; only x's exit is free.
COLLISION = """\
#INITIAL
m
#GOALS
g
#TRANSITIONS
m !
* m 1
g !
* g 1
x k
* x.y 1
x y.z
* g 1
x.y k
* x 1
x.y z
* d 1
d !
* g 1
"""


def test_colliding_exit_labels_map_back_to_their_own_member():
    ma, goal = parse(COLLISION)
    vma = validate(ma)
    res = expected_time(vma, goal, "min", tol=1e-12)
    x, xy = vma.index_of("x"), vma.index_of("x.y")
    assert res.values[x] == res.values[xy] == 0.0
    assert res.policy == {x: "y.z", xy: "k"}
    hitting = chain_absorption_hitting(vma, res.policy, goal)
    for s in (x, xy, vma.index_of("d"), vma.index_of("g")):
        assert hitting[s] == pytest.approx(res.values[s], abs=1e-12)


def _complete(vma, policy):
    """`policy` plus the smallest label at every probabilistic state it skips."""
    full = {s: min(label for label, _ in vma.ma.prob_transitions[s]) for s in vma.ps}
    full.update(policy)
    return full


def test_witness_policies_reproduce_values_on_random_family():
    rng = random.Random(11)
    collapsed = multi_mec = 0
    for case in range(150):
        vma, goal = random_ma(rng)
        absorbed = make_absorbing(vma, goal)
        zero_time = _refine_end_components(absorbed, absorbed.ps)
        multi_mec += len(mecs(vma)) > 1
        for mode in ("min", "max"):
            res = expected_time(vma, goal, mode)
            if mode == "min":
                collapsed += any(
                    not math.isinf(res.values[comp[0]]) for comp, _ in zero_time
                )
            hitting = chain_absorption_hitting(
                absorbed, _complete(absorbed, res.policy), goal
            )
            for s in range(vma.n):
                if not math.isinf(res.values[s]):
                    assert hitting[s] == pytest.approx(res.values[s], abs=1e-7), (
                        case, mode, vma.name(s)
                    )

            long_run = lra(vma, goal, mode)
            fixed = oracle.lra_fixed_policy(vma, goal, long_run.policy.flat())
            assert fixed == pytest.approx(long_run.values, abs=1e-6), (case, mode)
    # The family exercises both callers' exit mapping: 4 draws collapse a
    # zero-time end component for the minimum, 23 have several MECs.
    assert collapsed > 0 and multi_mec > 0


def _one_component_instance() -> SspInstance:
    """p and q pass the turn at no cost; p may leave for the goal g and
    q for h.  The goals g and h are renumbered."""
    act = SspRow
    return ssp_instance(
        [
            (act("x", 0.0, ((2, 1.0),)), act("y", 1.0, ((3, 1.0),))),
            (act("z", 2.0, ((0, 0.5), (2, 0.5))),),
            (act("x", 0.0, ((0, 1.0),)), act("y", 0.5, ((4, 1.0),))),
            (),
            (),
        ],
        goal={3, 4},
        terminal=((3, 0.5), (4, 2.0)),
        names=("p", "a", "q", "g", "h"),
    )


COMPONENT = [({0, 2}, {0: {"x"}, 2: {"x"}})]


def test_quotient_maps_goal_and_terminal_costs():
    quotient = collapse_end_components(_one_component_instance(), COMPONENT)
    ssp = quotient.ssp
    assert ssp.names == ("a", "g", "h", "@u1")
    assert quotient.state_map == {1: 0, 3: 1, 4: 2, 0: 3, 2: 3}
    assert (ssp.goal, ssp.terminal) == ({1, 2}, ((1, 0.5), (2, 2.0)))
    # a's two successors merge into the gate; the gate keeps the exits.
    rows = ssp_rows(ssp)
    assert rows[0] == (SspRow("z", 2.0, ((3, 1.0),)),)
    assert rows[3] == (
        SspRow("p.y", 1.0, ((1, 1.0),)),
        SspRow("q.y", 0.5, ((2, 1.0),)),
    )
    assert quotient.exits == {(0, "p.y"): (0, "y"), (0, "q.y"): (2, "y")}

    res = solve_ssp(ssp, "min")
    assert quotient.values(res) == [1.5, 3.5, 1.5, 0.5, 2.0]
    assert quotient.choices(res, range(5)) == {1: "z"}


def test_commit_adds_one_sink_per_component():
    quotient = collapse_end_components(_one_component_instance(), COMPONENT, [0.25])
    ssp = quotient.ssp
    assert ssp.names == ("a", "g", "h", "@u1", "@q1")
    assert (ssp.goal, ssp.terminal) == ({1, 2, 4}, ((1, 0.5), (2, 2.0), (4, 0.25)))
    rows = ssp_rows(ssp)
    assert rows[3][0] == SspRow(BOT, 0.0, ((4, 1.0),))
    assert rows[4] == ()
    res = solve_ssp(ssp, "min")
    assert quotient.values(res) == [0.25, 2.25, 0.25, 0.5, 2.0]


@pytest.mark.parametrize("commit", [[], [0.1, 0.2]])
def test_commit_needs_one_value_per_component(commit):
    with pytest.raises(ValueError, match="one value per component"):
        collapse_end_components(_one_component_instance(), COMPONENT, commit)


def test_exit_is_played_by_its_member_and_steered_to_by_the_others():
    # x -> y -> z -> x is a zero-time cycle off the reachable part; only z
    # leaves it, for the goal.  Committing gates return no exit.
    ma, goal = parse(
        "#INITIAL\nm\n#GOALS\ng\n#TRANSITIONS\nm !\n* g 1\ng !\n* g 1\n"
        "x k\n* y 1\ny k\n* z 1\nz k\n* x 1\nz out\n* g 1\n"
    )
    vma = validate(ma)
    x, y, z = (vma.index_of(name) for name in "xyz")
    components = _refine_end_components(vma, vma.ps - goal)
    quotient = collapse_end_components(build_ssp_et(vma, goal), components)
    res = solve_ssp(quotient.ssp, "min")
    assert quotient.exit(vma, res, 0) == ((z, "out"), {x: "k", y: "k", z: "out"})
    assert quotient.choices(res, range(vma.n)) == {vma.index_of("m"): BOT}
    assert quotient.values(res) == expected_time(vma, goal, "min").values
    assert expected_time(vma, goal, "min").policy == {x: "k", y: "k", z: "out"}

    committed = collapse_end_components(build_ssp_et(vma, goal), components, [0.0])
    assert committed.exit(vma, solve_ssp(committed.ssp, "min"), 0) is None
