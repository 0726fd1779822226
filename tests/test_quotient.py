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

from mama import expected_time, lra, make_absorbing, oracle, parse, validate
from mama.graph import _refine_end_components, mecs

from conftest import chain_absorption_hitting, random_ma

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
