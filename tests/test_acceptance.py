"""Acceptance gate: nine criteria, each printed as a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Every tolerance below is fixed; the random families
are seeded and deterministic.  The time gates read this process's CPU
time (`time.process_time`), so a loaded host does not fail them.
"""

import itertools
import json
import math
import random
import time

import pytest

from mama import (
    TimedQuery,
    build_ssp_lra,
    choose_delta,
    expected_time,
    lra,
    lra_unichain,
    mecs,
    oracle,
    timed_reachability,
    validate,
)
from mama.cli import run as cli_run
from mama.model import BOT

from conftest import MODELS, load_model, mk, random_ctmc, random_ma, ssp_rows

FIVE_SIXTHS = 5.0 / 6.0


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_two_mec_example():
    started = time.process_time()
    ma, goal = load_model("two_mecs.ma")
    vma = validate(ma)

    decomposition = mecs(vma)
    names = [{vma.name(s) for s in m.states} for m in decomposition]
    assert names == [{"s1", "s2", "s3", "s4"}, {"s5"}]
    kept = decomposition[0].action_map()
    assert kept[vma.index_of("s3")] == {"beta"}

    inst = build_ssp_lra(vma, decomposition, [FIVE_SIXTHS, 0.0])
    assert list(inst.names) == ["s0", "@u1", "@u2", "@q1", "@q2"]
    u1, u2, q1, q2 = 1, 2, 3, 4
    actions = ssp_rows(inst)
    assert {a.label: dict(a.dist) for a in actions[0]} == {BOT: {u1: 1.0}}
    assert {a.label: dict(a.dist) for a in actions[u1]} == {
        BOT: {q1: 1.0},
        "s3.alpha": {u2: 1.0},
    }
    assert {a.label: dict(a.dist) for a in actions[u2]} == {BOT: {q2: 1.0}}
    assert inst.goal == {q1, q2}

    hi = lra(vma, goal, "max", tol=1e-9).values[vma.initial]
    lo = lra(vma, goal, "min", tol=1e-9).values[vma.initial]
    assert abs(hi - FIVE_SIXTHS) <= 1e-6
    assert abs(lo - 0.0) <= 1e-9
    elapsed = time.process_time() - started
    _report(
        1,
        elapsed < 1.0,
        f"two-component example: decomposition, quotient, LRA bounds "
        f"(max={hi:.9f}, min={lo:.2e}) in {elapsed:.3f}s",
    )


def test_criterion_2_ctmc_expected_time_equivalence():
    started = time.process_time()
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(100):
        vma, goal = random_ctmc(rng, max_states=50, rate_lo=0.1, rate_hi=10.0)
        reference = oracle.ctmc_hitting_time(vma, goal)
        for mode in ("min", "max"):
            values = expected_time(vma, goal, mode, tol=1e-12).values
            for got, want in zip(values, reference):
                if math.isinf(want) or math.isinf(got):
                    assert math.isinf(want) == math.isinf(got)
                else:
                    worst = max(worst, abs(got - want))
    elapsed = time.process_time() - started
    _report(
        2,
        worst <= 1e-8 and elapsed < 10.0,
        f"100 random CTMCs (<=50 states): max |eT - hitting time| = "
        f"{worst:.2e} in {elapsed:.2f}s",
    )


def test_criterion_3_expected_time_policy_optimality():
    started = time.process_time()
    rng = random.Random(2025)
    worst = 0.0
    for _ in range(100):
        vma, goal = random_ma(rng, max_states=8, max_actions=2)
        for mode in ("min", "max"):
            got = expected_time(vma, goal, mode, tol=1e-12).values
            want = oracle.enumerate_policies(vma, goal, "et", mode)
            for a, b in zip(got, want):
                if math.isinf(a) or math.isinf(b):
                    assert math.isinf(a) == math.isinf(b)
                else:
                    worst = max(worst, abs(a - b))
    elapsed = time.process_time() - started
    _report(
        3,
        worst <= 1e-7 and elapsed < 30.0,
        f"100 random automata: max |eT - policy optimum| = {worst:.2e} "
        f"in {elapsed:.2f}s",
    )


def test_criterion_4_lra_brute_force_and_lp():
    started = time.process_time()
    rng = random.Random(2026)
    worst = 0.0
    worst_lp = 0.0
    mecs_checked = 0
    for _ in range(100):
        vma, goal = random_ma(rng, max_states=8, max_actions=2)
        goal_ms = frozenset(goal & vma.ms)
        for mode in ("min", "max"):
            got = lra(vma, goal, mode, tol=1e-9).values
            want = oracle.enumerate_policies(vma, goal, "lra", mode)
            for a, b in zip(got, want):
                worst = max(worst, abs(a - b))
        for mec in mecs(vma):
            if not (mec.states & vma.ms):
                continue  # no time passes inside: the ratio LP is unbounded
            for mode in ("min", "max"):
                via_lp = oracle.ratio_lp(vma, mec, goal_ms, mode)
                via_bisection, _, _ = lra_unichain(
                    vma, mec, goal_ms, mode, tol=1e-9
                )
                worst_lp = max(worst_lp, abs(via_lp - via_bisection))
            mecs_checked += 1
    elapsed = time.process_time() - started
    _report(
        4,
        worst <= 1e-6 and worst_lp <= 1e-6 and elapsed < 60.0,
        f"100 random automata: max |LRA - policy optimum| = {worst:.2e}, "
        f"max |LP - bisection| = {worst_lp:.2e} over {mecs_checked} "
        f"components, in {elapsed:.2f}s",
    )


def _erlang(n, rate=1.0):
    markov = {f"s{i}": [(f"s{i+1}" if i + 1 < n else "g", rate)] for i in range(n)}
    vma = validate(mk("s0", markov=markov))
    return vma, frozenset({vma.index_of("g")})


def _birth_death(n, up, down):
    markov = {}
    for i in range(n):
        edges = []
        if i + 1 < n:
            edges.append((f"s{i+1}", up))
        if i > 0:
            edges.append((f"s{i-1}", down))
        markov[f"s{i}"] = edges
    vma = validate(mk("s0", markov=markov, states=[f"s{i}" for i in range(n)]))
    return vma, frozenset({vma.index_of(f"s{n-1}")})


def test_criterion_5_discretisation_sandwich():
    cases = [_erlang(n) for n in (1, 2, 5)]
    cases.append(_birth_death(10, up=1.5, down=1.0))
    cases.append(_birth_death(6, up=1.0, down=0.5))
    checked = 0
    started = time.process_time()
    for vma, goal in cases:
        for b, eps in itertools.product((0.5, 1.0, 4.0), (1e-2, 1e-3)):
            res = timed_reachability(
                vma, TimedQuery(goal=goal, b=b, eps=eps, mode="max")
            )
            want = oracle.ctmc_transient(vma, goal, b)
            for s in range(vma.n):
                assert res.lower[s] <= want[s] <= res.upper[s], (b, eps, s)
                assert res.upper[s] - res.lower[s] <= eps
            checked += 1
    total = time.process_time() - started

    # single worst case: lambda * b = 10 at eps = 1e-3 (about 5e4
    # discretisation steps; a pure chain is answered by uniformisation)
    vma, goal = _birth_death(10, up=1.5, down=1.0)
    _, k = choose_delta(vma.lambda_max, 4.0, 1e-3)
    assert k == pytest.approx(5e4, rel=0.2)
    started = time.process_time()
    res = timed_reachability(vma, TimedQuery(goal=goal, b=4.0, eps=1e-3, mode="max"))
    worst_case = time.process_time() - started
    _report(
        5,
        worst_case < 10.0,
        f"{checked} sandwich cases certified (total {total:.2f}s); worst "
        f"case k={k} answered in {res.steps} steps, {worst_case:.2f}s",
    )


def test_criterion_6_error_bound_formula():
    delta, k = choose_delta(1.0, 1.0, 0.005)
    term = 1.0 - math.exp(-1.0) * (1.0 + delta) ** k
    _report(
        6,
        k == 100 and term <= 0.005 and abs(term - 0.00496) < 1e-4,
        f"k={k}, realized one-jump bound {term:.5f} <= 0.005",
    )


def test_criterion_7_interval_extension():
    ma, goal = load_model("single_exp.ma")
    vma = validate(ma)
    all_ok = True
    details = []
    for a, b in ((1.0, 4.0), (0.5, 1.0)):
        res = timed_reachability(
            vma, TimedQuery(goal=goal, a=a, b=b, eps=1e-3, mode="max")
        )
        want = math.exp(-a) - math.exp(-b)
        inside = res.lower[0] <= want <= res.upper[0]
        all_ok = all_ok and inside and (res.upper[0] - res.lower[0]) <= 1e-3
        details.append(f"[{a},{b}]: {res.lower[0]:.6f}<={want:.6f}<={res.upper[0]:.6f}")
    _report(7, all_ok, "; ".join(details))


def test_criterion_8_cli_determinism():
    import subprocess
    import sys
    from pathlib import Path

    import mama

    # The directory holding the `mama` the tests import: `src/` or site-packages.
    import_path = str(Path(mama.__file__).resolve().parent.parent)
    outputs = {}
    for label, argv in {
        "et": ["--query", "et", "--mode", "both"],
        "lra": ["--query", "lra", "--mode", "both"],
        "tbr": ["--query", "tbr", "--mode", "both", "--to", "1"],
    }.items():
        runs = []
        for threads in ("0", "4"):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "mama.cli", "run",
                    str(MODELS / "queue.ma"), "--output", "json", *argv,
                ],
                capture_output=True,
                text=True,
                # Scrubbed on purpose: the output must not depend on the caller's
                # environment; only the package's import path is passed through.
                env={
                    "PATH": "/usr/bin:/bin",
                    "MAMA_THREADS": threads,
                    "PYTHONPATH": import_path,
                },
            )
            assert proc.returncode == 0, (
                f"{label} MAMA_THREADS={threads}: {proc.stderr}"
            )
            runs.append(proc.stdout)
        assert runs[0] == runs[1], f"{label} output differs between runs"
        outputs[label] = json.loads(runs[0])

    for state, (lo, hi) in outputs["et"]["values"].items():
        lo = math.inf if lo == "inf" else lo
        hi = math.inf if hi == "inf" else hi
        assert lo <= hi + 1e-12
    for state, (lo, hi) in outputs["lra"]["values"].items():
        assert -1e-12 <= lo <= hi <= 1.0 + 1e-12
    _report(
        8,
        True,
        "byte-identical JSON across consecutive runs; eT and LRA bounds ordered",
    )


def test_criterion_9_zeno_rejection(capsys):
    code = cli_run(["run", str(MODELS / "zeno.ma"), "--query", "et"])
    err = capsys.readouterr().err
    _report(
        9,
        code == 4 and "p" in err and "q" in err,
        f"exit code {code}, witness reported: {err.strip()!r}",
    )
