"""Relations between queries that hold on every model, checked numerically.

Complement of the long-run average: time spent in the goal set G and time
spent outside it add up to all the time, and the scheduler that minimises
one maximises the other, so at every state

    lra_min(G) + lra_max(S - G) = 1   and   lra_max(G) + lra_min(S - G) = 1.

Each side is within `tol` of its value, so the sum is checked within
2 * tol.  The relation fails where a scheduler can stay in an end
component of probabilistic states only: no time passes there, `lra`
counts such a run as no time in any goal set, and so the minimum can be
0 for a goal set and for its complement alike.  Draws with such a
component are skipped.

Corpus: the benchmark families at seed 1 and 150 seed-11 draws of
`conftest.random_ma` with its default sizes.
"""

from __future__ import annotations

import random

import pytest

from mama import lra, validate
from mama.mdpsolve import DEFAULT_TOL

from conftest import benchmark_families, random_ma

FAMILIES = [
    pytest.param(validate(ma), goal, id=f"{name}-1") for name, ma, goal in benchmark_families(1)
]


def has_time_free_end_component(vma) -> bool:
    """Whether some probabilistic states can keep the run among themselves
    forever: the largest set of probabilistic states each of which has an
    action staying in the set is not empty."""
    inside = set(vma.ps)
    while True:
        keep = {
            s for s in inside
            if any(all(t in inside for t, _ in dist) for _, dist in vma.enabled(s))
        }
        if keep == inside:
            return bool(inside)
        inside = keep


def complement_gap(vma, goal) -> float:
    """The largest distance from 1 of lra_min(G) + lra_max(S - G) and of
    lra_max(G) + lra_min(S - G), over all states."""
    rest = frozenset(range(vma.n)) - goal
    inside, outside = lra(vma, goal, "both"), lra(vma, rest, "both")
    return max(
        abs(a + b - 1.0)
        for low, high in (("min", "max"), ("max", "min"))
        for a, b in zip(inside[low].values, outside[high].values)
    )


def test_lra_complement_on_random_draws():
    rng = random.Random(11)
    kept = 0
    for i in range(150):
        vma, goal = random_ma(rng)
        if has_time_free_end_component(vma):
            continue
        kept += 1
        assert complement_gap(vma, goal) <= 2 * DEFAULT_TOL, i
    assert kept >= 138


@pytest.mark.parametrize("vma, goal", FAMILIES)
def test_lra_complement_on_benchmark_families(vma, goal):
    assert not has_time_free_end_component(vma)
    assert complement_gap(vma, goal) <= 2 * DEFAULT_TOL


def test_a_time_free_end_component_counts_no_time_in_any_goal_set():
    # Seed-11 draw 9: the unreachable probabilistic states s3 and s4 can
    # each loop on themselves forever, where no time passes.  The minimum
    # stays there, for the goal set and for its complement alike, so the
    # relation fails there.
    rng = random.Random(11)
    for _ in range(10):
        vma, goal = random_ma(rng)
    assert has_time_free_end_component(vma)
    rest = frozenset(range(vma.n)) - goal
    for target in (goal, rest):
        values = lra(vma, target, "min").values
        assert [values[vma.index_of(name)] for name in ("s3", "s4")] == [0.0, 0.0]
    assert complement_gap(vma, goal) > 0.5
