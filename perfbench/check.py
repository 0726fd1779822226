"""Correctness checks on the JSON that `mama run` prints.

The checks run outside the timed region and do not call the solvers.
Expected time is checked by evaluating the reported witness policies with a
dense linear solve over the benchmark's own copy of the model, and the
infinite entries against an independent almost-sure reachability pass.
Long-run averages are checked by evaluating the witness policies with
`mama.oracle.lra_fixed_policy`, which is kept independent of the solvers.
Timed brackets are checked for order, width and the min/max relation.
Tolerances are fixed here and do not follow the query's `--tol`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from gen import Family

ET_REL_TOL = 1e-6
LRA_ABS_TOL = 1e-6
ORDER_SLACK = 1e-9


def _rows(fam: Family, goal: set[int]) -> list[tuple[int, set[int]]]:
    """(state, support) per action row of the non-goal states."""
    rows = []
    for s in range(fam.n):
        if s in goal:
            continue
        if fam.markov[s]:
            rows.append((s, {t for t, _ in fam.markov[s]}))
        for _, dist in fam.actions[s]:
            rows.append((s, {t for t, _ in dist}))
    return rows


def _preds(fam: Family, rows) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in range(fam.n)]
    for r, (_, support) in enumerate(rows):
        for t in support:
            preds[t].append(r)
    return preds


def reach_surely_some(fam: Family, goal: set[int]) -> set[int]:
    """States from which some policy reaches the goal with probability 1."""
    rows = _rows(fam, goal)
    preds = _preds(fam, rows)
    alive = set(range(fam.n))
    while True:
        valid = [s in alive and support <= alive for s, support in rows]
        reach = set(goal)
        queue = list(goal)
        while queue:
            t = queue.pop()
            for r in preds[t]:
                s = rows[r][0]
                if valid[r] and s not in reach:
                    reach.add(s)
                    queue.append(s)
        if reach == alive:
            return reach
        alive = reach


def reach_surely_all(fam: Family, goal: set[int]) -> set[int]:
    """States from which every policy reaches the goal with probability 1.

    A state fails when, avoiding the goal, it can reach a state from which
    some policy stays outside the goal forever.
    """
    rows = _rows(fam, goal)
    preds = _preds(fam, rows)
    avoid = set(range(fam.n)) - goal
    inside = [support <= avoid for _, support in rows]
    count = [0] * fam.n
    for r, (s, _) in enumerate(rows):
        count[s] += inside[r]
    queue = [s for s in avoid if count[s] == 0]
    while queue:  # greatest fixpoint: drop states with no row kept inside
        u = queue.pop()
        if u not in avoid:
            continue
        avoid.discard(u)
        for r in preds[u]:
            if inside[r]:
                inside[r] = False
                s = rows[r][0]
                count[s] -= 1
                if count[s] == 0 and s in avoid:
                    queue.append(s)
    bad = set(avoid)
    queue = list(avoid)
    while queue:  # goal-avoiding backward reachability
        t = queue.pop()
        for r in preds[t]:
            s = rows[r][0]
            if s not in bad:
                bad.add(s)
                queue.append(s)
    return set(range(fam.n)) - bad


def _value(x) -> float:
    return math.inf if x == "inf" else float(x)


def _check_et_mode(fam, goal, mode, values, policy, surely) -> list[str]:
    names = fam.names
    errors = []
    finite = {s for s in range(fam.n) if math.isfinite(values[s])}
    if finite != surely:
        wrong = sorted(finite ^ surely)[:3]
        errors.append(f"et/{mode}: finite set differs from the almost-sure set at {[names[s] for s in wrong]}")
        return errors
    for g in goal:
        if values[g] != 0.0:
            errors.append(f"et/{mode}: goal {names[g]} has value {values[g]}")
    solve = sorted(finite - goal)
    pos = {s: i for i, s in enumerate(solve)}
    a = np.eye(len(solve))
    rhs = np.zeros(len(solve))
    for s in solve:
        if fam.markov[s]:
            rate = fam.exit_rate(s)
            rhs[pos[s]] = 1.0 / rate
            dist = [(t, r / rate) for t, r in fam.markov[s]]
        else:
            label = policy.get(names[s])
            chosen = [d for lab, d in fam.actions[s] if lab == label]
            if not chosen:
                errors.append(f"et/{mode}: no valid choice at finite state {names[s]}: {label!r}")
                continue
            dist = chosen[0]
        for t, p in dist:
            if t in pos:
                a[pos[s], pos[t]] -= p
            elif t not in goal:
                errors.append(f"et/{mode}: policy at {names[s]} leaves the finite region")
    if errors or not solve:
        return errors
    try:
        exact = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        return [f"et/{mode}: witness policy does not reach the goal almost surely"]
    for s in solve:
        want, got = float(exact[pos[s]]), values[s]
        if not abs(got - want) <= ET_REL_TOL * max(1.0, abs(want)):
            errors.append(
                f"et/{mode}: {names[s]} reported {got!r}, witness policy gives {want!r}"
            )
            break
    return errors


def check_et(fam: Family, payload: dict) -> list[str]:
    goal = set(fam.goal)
    names = fam.names
    pairs = [[_value(x) for x in payload["values"][name]] for name in names]
    errors = []
    for mode, col, surely in (
        ("min", 0, reach_surely_some(fam, goal)),
        ("max", 1, reach_surely_all(fam, goal)),
    ):
        values = [p[col] for p in pairs]
        errors += _check_et_mode(fam, goal, mode, values, payload["policy"][mode], surely)
    for s, (lo, hi) in enumerate(pairs):
        if not lo <= hi * (1.0 + ORDER_SLACK) + ORDER_SLACK:
            errors.append(f"et: min {lo!r} above max {hi!r} at {names[s]}")
            break
    return errors


def check_lra(fam: Family, payload: dict, vma, oracle) -> list[str]:
    """`vma` is the validated model and `oracle` the `mama.oracle` module."""
    names = fam.names
    index = {name: i for i, name in enumerate(vma.states)}
    goal = {index[names[g]] for g in fam.goal}
    errors = []
    pairs = [payload["values"][name] for name in names]
    for s, (lo, hi) in enumerate(pairs):
        if not (-ORDER_SLACK <= lo <= hi + ORDER_SLACK <= 1.0 + 2 * ORDER_SLACK):
            errors.append(f"lra: [{lo!r}, {hi!r}] at {names[s]} is not an ordered pair in [0, 1]")
            break
    for mode, col in (("min", 0), ("max", 1)):
        policy = {index[name]: label for name, label in payload["policy"][mode].items()}
        try:
            exact = oracle.lra_fixed_policy(vma, goal, policy)
        except ValueError as exc:
            errors.append(f"lra/{mode}: witness policy rejected: {exc}")
            continue
        for s, name in enumerate(names):
            want, got = exact[index[name]], pairs[s][col]
            if not abs(got - want) <= LRA_ABS_TOL:
                errors.append(f"lra/{mode}: {name} reported {got!r}, witness policy gives {want!r}")
                break
    return errors


def timed_steps(lam: float, b: float, eps: float) -> int:
    """The step count k = ceil(lambda^2 b^2 / (2 eps)) of a [0, b] query."""
    return max(1, math.ceil(Fraction(lam) ** 2 * Fraction(b) ** 2 / (2 * Fraction(eps))))


def check_tbr(fam: Family, payload: dict, b: float, eps: float) -> list[str]:
    names = fam.names
    k = timed_steps(fam.lambda_max(), b, eps)
    # Floating-point drift over k sweeps, on each side of the bracket.
    allowance = 2.0 * max(4e-12, 8.0 * k * 2.220446049250313e-16)
    bounds = payload["bounds"]
    errors = []
    for name in names:
        lo = {m: bounds[m]["lower"][name] for m in ("min", "max")}
        hi = {m: bounds[m]["upper"][name] for m in ("min", "max")}
        for m in ("min", "max"):
            if not 0.0 <= lo[m] <= hi[m] <= 1.0:
                errors.append(f"tbr/{m}: bracket [{lo[m]!r}, {hi[m]!r}] at {name} out of order")
            elif hi[m] - lo[m] > eps + allowance:
                errors.append(f"tbr/{m}: bracket width {hi[m] - lo[m]!r} at {name} exceeds {eps}")
        if lo["min"] > lo["max"] + allowance or hi["min"] > hi["max"] + allowance:
            errors.append(f"tbr: min bracket exceeds max bracket at {name}")
        if payload["values"][name] != [lo["min"], lo["max"]]:
            errors.append(f"tbr: values at {name} differ from the lower bounds")
        if errors:
            break
    return errors
