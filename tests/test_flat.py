"""Kernels built from arrays, checked against per-entry references.

The model's kernel of all states (`ValidatedMA.kernel`) is built by
numpy; the zero-time levels and both m-phases are cut from it, the Zeno
verdict peels it, and the SSP kernels and the long-run average's
per-component kernels are cut from it, every one by `Kernel.cut`.  Each
is checked here against a test-local reference that walks the model's
distributions entry by entry, as the package did before the kernel: the
rows of `conftest.enabled_actions` in label order, Kahn's peeling on
Python lists, one-step rows merged in a dict, a component's rows by
`conftest.two_cost_rows`, and `conftest.reference_kernel`'s per-entry
loop.  Their arrays must be equal element for element, which makes
every reduction over them bit-identical.  The stacked Unif+ loop is
checked against the two separate loops it replaces.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

import numpy as np
import pytest

from mama import check_non_zeno, exptime, graph, longrun, make_absorbing, validate
from mama.errors import ZenoSubgraph
from mama.mdpsolve import Kernel, SspInstance, ZeroTimePropagator
from mama.timedreach import (
    TAIL_SHARE,
    _brackets,
    _istar,
    _mphase,
    _one_step,
    _roundoff_allowance,
    _uniformised,
    choose_delta,
    discretise,
    poisson_weights,
)

from conftest import (
    MODELS,
    benchmark_families,
    enabled_actions,
    load_model,
    mk,
    random_ma,
    reference_kernel,
    ssp_rows,
    step_rows,
    two_cost_rows,
)

Row = namedtuple("Row", "label dist")


def _family_models():
    for seed in (1, 2, 3):
        for name, ma, goal in benchmark_families(seed):
            yield f"{name}-{seed}", (ma, goal)


def _edge_models():
    def goal_g(ma):
        return ma, frozenset({ma.index_of("g")})

    # No probabilistic non-goal state: a CTMC.
    yield "ctmc", goal_g(mk("a", markov={"a": [("b", 2.0), ("a", 1.0)], "b": [("g", 3.0)]}))
    # No Markovian non-goal state: every non-goal state is probabilistic.
    yield "all-probabilistic", goal_g(mk(
        "p", prob={"p": [("x", [("q", 0.5), ("g", 0.5)]), ("y", [("g", 1.0)])],
                   "q": [("z", [("g", 1.0)])]},
        markov={"g": [("g", 1.0)]},
    ))
    # Every Markovian non-goal state at lambda_max, with and without a
    # self-loop, so the uniformised stay is 0 and is dropped or merged.
    yield "at-lambda-max", goal_g(mk(
        "a", markov={"a": [("b", 2.0)], "b": [("b", 1.0), ("c", 1.0)],
                     "c": [("p", 1.0), ("g", 1.0)]},
        prob={"p": [("x", [("a", 1.0)])]},
    ))
    # Branching probabilities that underflow to zero, on a self-loop and
    # on another successor.
    yield "underflow", goal_g(mk(
        "a", markov={"a": [("a", 5e-324), ("b", 3.0)], "b": [("a", 5e-324), ("g", 3.0)]},
        prob={"p": [("x", [("b", 1.0)])]},
    ))


def _models():
    for name in sorted(p.name for p in MODELS.glob("*.ma")):
        yield name, load_model(name)
    yield from _family_models()
    yield from _edge_models()
    rng = random.Random(11)
    for i in range(150):
        vma, goal = random_ma(rng, max_states=10, max_actions=3)
        yield f"draw-{i}", (vma.ma, goal)


MODELS_UNDER_TEST = list(_models())
# The models a timed query answers on: non-Zeno, with a goal.
TIMED = [(name, model) for name, model in MODELS_UNDER_TEST
         if model[1] and check_non_zeno(validate(model[0])) is None]


def _reference_levels(vma, open_):
    """Kahn's peeling on lists: the levels, or the stuck states."""
    succ = {s: [t for _, dist in enabled_actions(vma, s) for t in dict.fromkeys(t for t, _ in dist)]
            for s in range(vma.n) if open_[s]}
    pending = {s: sum(open_[t] for t in ts) for s, ts in succ.items()}
    preds = {}
    for s, ts in succ.items():
        for t in ts:
            preds.setdefault(t, []).append(s)
    level = sorted(s for s in succ if not pending[s])
    levels = []
    while level:
        levels.append(level)
        nxt = []
        for t in level:
            for s in preds.get(t, []):
                pending[s] -= 1
                if pending[s] == 0:
                    nxt.append(s)
        level = sorted(nxt)
    placed = {s for level in levels for s in level}
    return levels, [s for s in succ if s not in placed]


def _on_a_cycle(vma, stuck):
    """The stuck states that reach themselves through stuck states."""
    inside = set(stuck)
    succ = {s: {t for _, dist in enabled_actions(vma, s) for t, _ in dist if t in inside} for s in stuck}
    cyclic = []
    for s in stuck:
        seen, todo = set(), list(succ[s])
        while todo:
            t = todo.pop()
            if t not in seen:
                seen.add(t)
                todo.extend(succ[t])
        if s in seen:
            cyclic.append(s)
    return cyclic


def _reference_step_row(vma, s, jump, stay):
    mass = {}
    for t, p in vma.branch[s]:
        mass[t] = mass.get(t, 0.0) + jump * p
    mass[s] = mass.get(s, 0.0) + stay
    return tuple(sorted(mass.items()))


def _reference_mphase(vma, goal, row):
    upd = [s for s in sorted(vma.ms) if s not in goal]
    return reference_kernel(upd, lambda s: (Row("!", row(s)),))


def _assert_same_kernel(got, want, labelled=False):
    """Equal arrays; a solver kernel and a zero-time level also have the
    same row labels, and an m-phase none."""
    for name in ("upd", "starts", "succ_starts", "succ_idx", "succ_p", "row_state"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.label == (want.label if labelled else None)


def _absorbed(ma, goal):
    vma = validate(ma)
    return vma, make_absorbing(vma, goal), frozenset(goal)


@pytest.mark.parametrize("name,model", MODELS_UNDER_TEST, ids=[n for n, _ in MODELS_UNDER_TEST])
def test_levels_and_mphases_equal_the_per_entry_reference(name, model):
    _, absorbed, goal = _absorbed(*model)
    solved = frozenset(absorbed.ps) - goal
    open_ = [s in solved for s in range(absorbed.n)]
    levels, stuck = _reference_levels(absorbed, open_)
    if stuck:
        with pytest.raises(ZenoSubgraph) as excinfo:
            ZeroTimePropagator(absorbed, frozenset(range(absorbed.n)) - solved)
        names = sorted(absorbed.name(s) for s in _on_a_cycle(absorbed, stuck))
        assert sorted(excinfo.value.states) == names
    else:
        got = ZeroTimePropagator(absorbed, frozenset(range(absorbed.n)) - solved).levels
        assert len(got) == len(levels)
        for kernel, level in zip(got, levels):
            want = reference_kernel(level, lambda s: map(Row._make, enabled_actions(absorbed, s)))
            _assert_same_kernel(kernel, want, labelled=True)
        if not solved:
            assert _istar(absorbed, goal, 1).levels == []

    lam = absorbed.lambda_max
    ms = sorted(absorbed.ms)
    jump = np.array([absorbed.exit_rate[s] for s in ms]) / lam
    _assert_same_kernel(
        _mphase(_one_step(absorbed, jump, 1.0 - jump), goal, absorbed.n, 1),
        _reference_mphase(
            absorbed, goal,
            lambda s: _reference_step_row(
                absorbed, s, absorbed.exit_rate[s] / lam, 1.0 - absorbed.exit_rate[s] / lam
            ),
        ),
    )
    # The query's step width, and one so wide that every stay underflows.
    for delta in (choose_delta(lam, 1.0, 0.05)[0], 1e4):
        def row(s):
            stay = math.exp(-absorbed.exit_rate[s] * delta)
            return _reference_step_row(absorbed, s, 1.0 - stay, stay)

        dma = discretise(absorbed, delta)
        _assert_same_kernel(_mphase(dma.step, goal, absorbed.n, 1),
                            _reference_mphase(absorbed, goal, row))
        assert step_rows(dma) == tuple(
            tuple((t, p) for t, p in row(s) if p > 0.0) if s in absorbed.ms else ()
            for s in range(absorbed.n)
        )


def _reference_flat(vma):
    """The model's kernel by a per-entry walk of `enabled_actions`, rows in
    label order, zero entries kept."""
    starts, succ_starts, idx, ps, row_state, labels = [], [], [], [], [], []
    for s in range(vma.n):
        starts.append(len(labels))
        for label, dist in sorted(enabled_actions(vma, s), key=lambda row: row[0]):
            labels.append(label)
            row_state.append(s)
            succ_starts.append(len(idx))
            for t, p in dist:
                idx.append(t)
                ps.append(p)
    kernel = Kernel.from_arrays(
        np.arange(vma.n), *(np.array(a, dtype=np.int64) for a in (starts, succ_starts, idx)),
        np.array(ps, dtype=np.float64), labels,
    )
    kernel.row_state = np.array(row_state, dtype=np.int64)
    return kernel


@pytest.mark.parametrize("name,model", MODELS_UNDER_TEST, ids=[n for n, _ in MODELS_UNDER_TEST])
def test_model_kernel_equals_the_per_entry_walk(name, model):
    ma, goal = model
    vma = validate(ma)
    # The underflow model's zero branching probabilities must be kept.
    for m in (vma, make_absorbing(vma, goal)):
        _assert_same_kernel(m.kernel, _reference_flat(m), labelled=True)


def _ssp_reference(ssp, mode, infinite=(), **_):
    frozen = ssp.goal | frozenset(infinite)
    return [reference_kernel(
        (s for s in range(ssp.n) if s not in frozen), ssp_rows(ssp).__getitem__
    )]


def _unichain_reference(vma, mec, goal, **_):
    goal = frozenset(goal) & mec.states & vma.ms
    if not goal or mec.states & vma.ms <= goal:
        return []  # the ratio is 0 or 1, with no kernel
    members, rows = two_cost_rows(vma, mec, goal)
    return [reference_kernel(range(len(members)), rows.__getitem__)]


NON_ZENO = [(name, model) for name, model in MODELS_UNDER_TEST
            if check_non_zeno(validate(model[0])) is None]


@pytest.mark.parametrize("name,model", NON_ZENO, ids=[n for n, _ in NON_ZENO])
def test_solver_kernels_equal_the_per_entry_reference(monkeypatch, name, model):
    # Every kernel that `solve_ssp` sweeps (`SspInstance.sweep`) and that
    # `lra_unichain` iterates on (`longrun._rvi`): expected time in both
    # modes (the minimum on the collapsed quotient), and each component,
    # with its states renumbered, and the quotient of the long-run average
    # in both modes.  The tolerance only shortens the sweeps; the kernels
    # do not depend on it.
    ma, goal = model
    vma = validate(ma)
    built, calls = [], []
    sweep, rvi = SspInstance.sweep, longrun._rvi

    def recording_sweep(ssp, held):
        kernel, cost = sweep(ssp, held)
        built.append(kernel)
        return kernel, cost

    def recording_rvi(kernel, *args, **kwargs):
        # Every probe of one component iterates on the same kernel.
        if not built or built[-1] is not kernel:
            built.append(kernel)
        return rvi(kernel, *args, **kwargs)

    def recording(solver, reference):
        def call(*args, **kwargs):
            start = len(built)
            result = solver(*args, **kwargs)
            calls.append((built[start:], reference(*args, **kwargs)))
            return result
        return call

    monkeypatch.setattr(SspInstance, "sweep", recording_sweep)
    monkeypatch.setattr(longrun, "_rvi", recording_rvi)
    monkeypatch.setattr(exptime, "solve_ssp", recording(exptime.solve_ssp, _ssp_reference))
    monkeypatch.setattr(longrun, "solve_ssp", recording(longrun.solve_ssp, _ssp_reference))
    monkeypatch.setattr(
        longrun, "lra_unichain", recording(longrun.lra_unichain, _unichain_reference)
    )
    for mode in ("min", "max"):
        exptime.expected_time(vma, goal, mode, tol=1e-4)
        longrun.lra(vma, goal, mode, tol=1e-4)
    assert len(calls) == 4 + 2 * len(graph.mecs(vma))
    for got, want in calls:
        assert len(got) == len(want)
        for kernel, reference in zip(got, want):
            _assert_same_kernel(kernel, reference, labelled=True)
    if name == "underflow":
        assert (vma.kernel.succ_p == 0.0).any()


def _two_loops(vma, goal, lam, psi, tail):
    """The knows-N and jump-counting bounds, each in a loop of its own, on
    per-entry reference kernels."""
    istar = _istar(vma, goal, 2)
    mphase = _reference_mphase(
        vma, goal,
        lambda s: _reference_step_row(vma, s, vma.exit_rate[s] / lam, 1.0 - vma.exit_rate[s] / lam),
    ).tile(2, vma.n)
    start = np.zeros(vma.n)
    start[sorted(goal)] = 1.0
    start = np.concatenate((start, -start))
    reach = start.copy()
    knows = np.zeros_like(start)
    for i, p in enumerate(psi):
        if i:
            reach[mphase.upd] = mphase.expect(reach)
        istar.apply(reach)
        knows += p * reach
    held = np.flatnonzero(start)
    sign = start[held]
    counting = np.zeros_like(start)
    for credit in np.cumsum(psi[::-1]):
        counting[mphase.upd] = mphase.expect(counting)
        counting[held] = credit * sign
        istar.apply(counting)
    knows[held] = counting[held] = sign
    x = np.array([knows[: vma.n], -knows[vma.n:]])
    y = np.array([counting[: vma.n], -counting[vma.n:]])
    fuzz = _roundoff_allowance(2 * len(psi) - 1)
    return _brackets(np.minimum(x, y), np.maximum(x, y), (fuzz,), (tail, fuzz))


@pytest.mark.parametrize("name,model", TIMED, ids=[n for n, _ in TIMED])
def test_stacked_unif_plus_equals_two_loops(name, model):
    vma, absorbed, goal = _absorbed(*model)
    lam = vma.lambda_max
    for b, eps in ((1.0, 0.05), (0.3, 1e-3)):
        psi, tail = poisson_weights(lam * b, eps * TAIL_SHARE)
        try:
            want = _two_loops(absorbed, goal, lam, psi, tail)
        except ZenoSubgraph:
            with pytest.raises(ZenoSubgraph):
                _uniformised(absorbed, goal, lam, psi, tail)
            continue
        got = _uniformised(absorbed, goal, lam, psi, tail)
        for a, w in zip(got, want):
            assert a.tobytes() == w.tobytes()


def _zeno_prone(rng):
    """A random model whose states are mostly probabilistic, unfiltered."""
    n = rng.randint(2, 9)
    names = [f"s{i}" for i in range(n)]
    prob, markov = {}, {}
    for i in range(n):
        if rng.random() < 0.3:
            markov[names[i]] = [(names[t], 1.0) for t in rng.sample(range(n), rng.randint(1, 2))]
        else:
            blocks = []
            for a in range(rng.randint(1, 2)):
                support = rng.sample(range(n), rng.randint(1, 2))
                blocks.append((f"a{a}", [(names[t], 1.0 / len(support)) for t in support]))
            prob[names[i]] = blocks
    return validate(mk("s0", prob=prob, markov=markov, states=names))


def _tarjan_verdict(vma):
    member = [s in vma.ps and s not in vma.unreachable for s in range(vma.n)]
    cycles = graph.zero_time_cycles(graph.action_rows(vma), member)
    return frozenset(cycles[0]) if cycles else None


def test_zeno_verdict_from_levelling_equals_tarjan():
    rng = random.Random(7)
    draws = [_zeno_prone(rng) for _ in range(500)]
    draws += [validate(model[0]) for _, model in MODELS_UNDER_TEST]
    zeno = 0
    for vma in draws:
        witness = check_non_zeno(vma)
        want = _tarjan_verdict(vma)
        assert (witness.states if witness else None) == want
        zeno += want is not None
    assert 100 < zeno < 450
