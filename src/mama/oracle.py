"""Independent ground-truth engines for cross-checking the analyses.

Everything here deliberately avoids the production solvers: hitting times
and stationary distributions come from dense linear algebra, optima from
exhaustive policy enumeration, the long-run ratio from a literal linear
program solved by a self-contained simplex, transient probabilities from
uniformization, and distributions from Monte Carlo simulation.  The CLI
exposes these through `--verify` on small models; the test suite leans on
them throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    LpInfeasible,
    LpUnbounded,
    MamaError,
    NotConverged,
    NotErgodic,
    SingularSystem,
    TooManyPolicies,
    ZenoGuardTripped,
)
from .longrun import TwoCostMdp
from .mdpsolve import SspInstance
from .model import ValidatedMA, check_goal

POLICY_CAP = 10**6
LP_VARIABLE_CAP = 200

_ZERO_TIME_STEP_CAP = 10**6
_SIM_JUMP_CAP = 10**7


# ---------------------------------------------------------------------------
# induced chains


def _induced_chain(
    vma: ValidatedMA, policy: dict[int, str] | None
) -> list[tuple[bool, float, tuple[tuple[int, float], ...]]]:
    """Per state: (is Markovian, exit rate, successor distribution)."""
    chain = []
    for s in range(vma.n):
        if s in vma.ms:
            chain.append((True, vma.exit_rate[s], vma.branch[s]))
        else:
            if policy is None or s not in policy:
                raise ValueError(f"policy misses probabilistic state {vma.name(s)}")
            label = policy[s]
            for cand, dist in vma.ma.prob_transitions[s]:
                if cand == label:
                    chain.append((False, 0.0, dist))
                    break
            else:
                raise ValueError(
                    f"policy action '{label}' not enabled at {vma.name(s)}"
                )
    return chain


def _chain_sccs(chain) -> list[list[int]]:
    """Tarjan over the chain's support graph (local, iterative)."""
    n = len(chain)
    succ = [sorted({t for t, _ in chain[s][2]}) for s in range(n)]
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    comps: list[list[int]] = []
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, i = work.pop()
            advanced = False
            while i < len(succ[v]):
                w = succ[v][i]
                i += 1
                if index[w] == -1:
                    work.append((v, i))
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    comps.sort(key=min)
    return comps


def _solve_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise SingularSystem() from None
    return x


def _chain_hitting_time(vma: ValidatedMA, chain, goal: frozenset[int]) -> list[float]:
    """Expected time to the goal set in a fixed chain; inf where not certain."""
    n = len(chain)
    # States from which the goal is unreachable at all.
    can_reach = set(goal)
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if s in can_reach:
                continue
            if any(t in can_reach for t, _ in chain[s][2]):
                can_reach.add(s)
                changed = True
    doomed = set(range(n)) - can_reach
    # States with a goal-avoiding path into `doomed` miss the goal with
    # positive probability.
    spread = set(doomed)
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if s in spread or s in goal:
                continue
            if any(t in spread for t, _ in chain[s][2]):
                spread.add(s)
                changed = True
    certain = [s for s in range(n) if s not in spread and s not in goal]

    values = [math.inf] * n
    for g in goal:
        values[g] = 0.0
    if certain:
        pos = {s: i for i, s in enumerate(certain)}
        m = len(certain)
        a = np.eye(m)
        rhs = np.zeros(m)
        for s in certain:
            is_markov, rate, dist = chain[s]
            rhs[pos[s]] = 1.0 / rate if is_markov else 0.0
            for t, p in dist:
                if t in pos:
                    a[pos[s], pos[t]] -= p
        x = _solve_dense(a, rhs)
        for s in certain:
            values[s] = float(x[pos[s]])
    return values


def ctmc_hitting_time(vma: ValidatedMA, goal: Iterable[int]) -> list[float]:
    """Expected hitting times of a pure CTMC by a dense linear solve."""
    if vma.ps:
        raise ValueError("model has probabilistic states; not a CTMC")
    return _chain_hitting_time(vma, _induced_chain(vma, None), check_goal(vma, goal))


def _stationary_embedded(rows: Sequence[tuple[tuple[int, float], ...]]) -> np.ndarray:
    """Solve mu P = mu, sum mu = 1 for an irreducible stochastic matrix.

    `rows[i]` lists (local column, probability).
    """
    m = len(rows)
    a = np.zeros((m, m))
    for i, row in enumerate(rows):
        for j, p in row:
            a[j, i] += p
    a -= np.eye(m)
    a[m - 1, :] = 1.0
    b = np.zeros(m)
    b[m - 1] = 1.0
    return _solve_dense(a, b)


def embedded_stationary(vma: ValidatedMA) -> list[float]:
    """Stationary distribution of the embedded jump chain of a CTMC."""
    if vma.ps:
        raise NotErgodic("probabilistic states present")
    comps = _chain_sccs(_induced_chain(vma, None))
    if len(comps) != 1:
        raise NotErgodic(f"{len(comps)} communicating classes")
    rows = [vma.branch[s] for s in range(vma.n)]
    mu = _stationary_embedded(rows)
    return [float(x) for x in mu]


def ctmc_steady_state(vma: ValidatedMA) -> list[float]:
    """Steady-state distribution of an ergodic CTMC.

    Uses the embedded-chain route: solve mu P = mu on the jump chain, then
    weight by the expected sojourn times, pi_i proportional to mu_i/E(i).
    """
    mu = embedded_stationary(vma)
    weights = [mu[s] / vma.exit_rate[s] for s in range(vma.n)]
    total = sum(weights)
    return [w / total for w in weights]


def lra_fixed_policy(
    vma: ValidatedMA, goal: Iterable[int], policy: dict[int, str]
) -> list[float]:
    """Exact long-run goal fraction of the chain a policy induces.

    Each recurrent class contributes the ratio of goal sojourn weight to
    total sojourn weight of its embedded stationary distribution; transient
    states mix the class values by their absorption probabilities.
    """
    goal = check_goal(vma, goal)
    chain = _induced_chain(vma, policy)
    n = len(chain)
    comps = _chain_sccs(chain)
    recurrent: list[list[int]] = []
    for comp in comps:
        members = set(comp)
        closed = all(
            t in members for s in comp for t, _ in chain[s][2]
        )
        if closed:
            recurrent.append(comp)

    class_value: dict[int, float] = {}
    class_of: dict[int, int] = {}
    for ci, comp in enumerate(recurrent):
        for s in comp:
            class_of[s] = ci
        ms_members = [s for s in comp if chain[s][0]]
        if not ms_members:
            # A recurrent class of instantaneous states never advances the
            # clock; non-Zeno models only contain these unreachably, and
            # they carry no goal sojourn time.
            class_value[ci] = 0.0
            continue
        local = {s: i for i, s in enumerate(comp)}
        rows = [
            tuple((local[t], p) for t, p in chain[s][2]) for s in comp
        ]
        mu = _stationary_embedded(rows)
        total = sum(mu[local[s]] / chain[s][1] for s in ms_members)
        in_goal = sum(
            mu[local[s]] / chain[s][1] for s in ms_members if s in goal
        )
        class_value[ci] = float(in_goal / total)

    transient = [s for s in range(n) if s not in class_of]
    values = [0.0] * n
    for s, ci in class_of.items():
        values[s] = class_value[ci]
    if transient:
        pos = {s: i for i, s in enumerate(transient)}
        m = len(transient)
        a = np.eye(m)
        rhs = np.zeros((m, len(recurrent)))
        for s in transient:
            for t, p in chain[s][2]:
                if t in pos:
                    a[pos[s], pos[t]] -= p
                else:
                    rhs[pos[s], class_of[t]] += p
        absorb = _solve_dense(a, rhs)
        for s in transient:
            values[s] = float(
                sum(absorb[pos[s], ci] * class_value[ci] for ci in class_value)
            )
    return values


# ---------------------------------------------------------------------------
# exhaustive policy enumeration


def _all_policies(vma: ValidatedMA) -> Iterable[dict[int, str]]:
    ps_states = sorted(vma.ps)
    label_sets = [
        sorted(label for label, _ in vma.ma.prob_transitions[s]) for s in ps_states
    ]
    count = 1
    for labels in label_sets:
        count *= len(labels)
    if count > POLICY_CAP:
        raise TooManyPolicies(count, POLICY_CAP)
    for combo in itertools.product(*label_sets):
        yield dict(zip(ps_states, combo))


def enumerate_policies(
    vma: ValidatedMA, goal: Iterable[int], objective: str, mode: str
) -> list[float]:
    """Per-state optimum over all stationary deterministic policies."""
    if objective not in ("et", "lra"):
        raise ValueError(f"objective must be 'et' or 'lra', got {objective!r}")
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    goal = check_goal(vma, goal)
    better = min if mode == "min" else max
    best: list[float] | None = None
    for policy in _all_policies(vma):
        if objective == "et":
            chain = _induced_chain(vma, policy)
            values = _chain_hitting_time(vma, chain, goal)
        else:
            values = lra_fixed_policy(vma, goal, policy)
        if best is None:
            best = list(values)
        else:
            best = [better(a, b) for a, b in zip(best, values)]
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# linear programming reference (dense two-phase simplex, Bland's rule)


def _pivot_until_optimal(tableau, basis, cost_vec, ncols, max_pivots=200_000):
    """In-place Bland iterations: smallest improving column enters, ratio
    ties resolved by the smallest basic variable."""
    m = tableau.shape[0]
    for _ in range(max_pivots):
        cb = cost_vec[basis]
        reduced = cost_vec[:ncols] - cb @ tableau[:, :ncols]
        entering = -1
        for j in range(ncols):
            if reduced[j] < -1e-9:
                entering = j
                break
        if entering < 0:
            return
        col = tableau[:, entering]
        best_ratio = None
        leaving = -1
        for i in range(m):
            if col[i] > 1e-12:
                ratio = tableau[i, -1] / col[i]
                if (
                    best_ratio is None
                    or ratio < best_ratio - 1e-12
                    or (abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise LpUnbounded()
        piv = tableau[leaving, entering]
        tableau[leaving] /= piv
        for i in range(m):
            if i != leaving and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leaving]
        basis[leaving] = entering
    raise NotConverged(max_pivots, math.nan)


def _simplex_standard(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min c.x subject to a x = b, x >= 0, by a two-phase dense tableau."""
    m, n = a.shape
    a = a.copy()
    b = b.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    tableau = np.hstack([a, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(n, n + m))
    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    _pivot_until_optimal(tableau, basis, phase1_cost, n + m)
    if float(phase1_cost[basis] @ tableau[:, -1]) > 1e-7:
        raise LpInfeasible()

    # Pivot leftover artificials onto real columns; rows where that is
    # impossible are redundant (all-zero in the real part) and are dropped.
    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        for j in range(n):
            if abs(tableau[i, j]) > 1e-9:
                piv = tableau[i, j]
                tableau[i] /= piv
                for r in range(m):
                    if r != i and tableau[r, j] != 0.0:
                        tableau[r] -= tableau[r, j] * tableau[i]
                basis[i] = j
                keep.append(i)
                break
    tableau = np.hstack(
        [tableau[keep][:, :n], tableau[keep][:, -1].reshape(-1, 1)]
    )
    basis = [basis[i] for i in keep]

    _pivot_until_optimal(tableau, basis, c, n)
    x = np.zeros(n)
    for i, var in enumerate(basis):
        x[var] = tableau[i, -1]
    return x


def _solve_lp_free(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> np.ndarray:
    """min c.y subject to a_ub y <= b_ub with free variables y."""
    n = len(c)
    split_c = np.concatenate([c, -c])
    split_a = np.hstack([a_ub, -a_ub])
    m = len(b_ub)
    a_eq = np.hstack([split_a, np.eye(m)])
    c_eq = np.concatenate([split_c, np.zeros(m)])
    x = _simplex_standard(c_eq, a_eq, np.asarray(b_ub, dtype=np.float64))
    return x[:n] - x[n : 2 * n]


def _ratio_lp(tc: TwoCostMdp, mode: str) -> float:
    n_vars = tc.n + 1
    if n_vars > LP_VARIABLE_CAP:
        raise ValueError(f"{n_vars} variables exceed the reference-LP cap")
    rows = []
    rhs = []
    sign = 1.0 if mode == "min" else -1.0
    # min mode:  x_s - sum P x_t + k c2 <= c1   (maximize k)
    # max mode: -x_s + sum P x_t - k c2 <= -c1  (minimize k)
    for s in range(tc.n):
        for act in tc.actions[s]:
            row = np.zeros(n_vars)
            row[1 + s] += sign
            for t, p in act.dist:
                row[1 + t] -= sign * p
            row[0] = act.c2 * sign
            rows.append(row)
            rhs.append(act.c1 * sign)
    objective = np.zeros(n_vars)
    objective[0] = -1.0 if mode == "min" else 1.0
    y = _solve_lp_free(objective, np.array(rows), np.array(rhs))
    return float(y[0])


def _ssp_lp(ssp: SspInstance, mode: str) -> list[float]:
    terminal = ssp.terminal_map()
    free = [s for s in range(ssp.n) if s not in ssp.goal]
    if len(free) > LP_VARIABLE_CAP:
        raise ValueError(f"{len(free)} variables exceed the reference-LP cap")
    pos = {s: i for i, s in enumerate(free)}
    sign = 1.0 if mode == "min" else -1.0
    rows = []
    rhs = []
    for s in free:
        for act in ssp.actions[s]:
            row = np.zeros(len(free))
            row[pos[s]] += sign
            const = act.cost
            for t, p in act.dist:
                if t in ssp.goal:
                    const += p * terminal[t]
                else:
                    row[pos[t]] -= sign * p
            rows.append(row)
            rhs.append(sign * const)
    objective = np.full(len(free), -sign)
    y = _solve_lp_free(objective, np.array(rows), np.array(rhs))
    values = [0.0] * ssp.n
    for s, g in terminal.items():
        values[s] = g
    for s in free:
        values[s] = float(y[pos[s]])
    return values


def lp_reference(instance, mode: str):
    """Literal linear-programming formulations, solved by dense simplex.

    A `TwoCostMdp` yields the optimal long-run ratio (scalar); an
    `SspInstance` yields the optimal expected-cost vector.  Only meant for
    desk-scale cross-checks.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    if isinstance(instance, TwoCostMdp):
        return _ratio_lp(instance, mode)
    if isinstance(instance, SspInstance):
        return _ssp_lp(instance, mode)
    raise TypeError(f"unsupported instance type {type(instance)!r}")


# ---------------------------------------------------------------------------
# transient analysis by uniformization


def ctmc_transient(
    vma: ValidatedMA, goal: Iterable[int], b: float, tail: float = 1e-12
) -> list[float]:
    """P(reach the goal within [0, b]) in a pure CTMC, via uniformization.

    The goal is made absorbing, the chain is subordinated to a Poisson
    clock at the maximal exit rate, and the Poisson-weighted step
    probabilities are accumulated until the remaining tail drops below
    `tail`.
    """
    if vma.ps:
        raise ValueError("model has probabilistic states; not a CTMC")
    if b < 0:
        raise ValueError("time bound must be >= 0")
    goal = check_goal(vma, goal)
    n = vma.n
    w = np.zeros(n)
    for g in goal:
        w[g] = 1.0
    if b == 0.0 or not goal:
        return [float(x) for x in w]

    rates = [vma.exit_rate[s] if s not in goal else 0.0 for s in range(n)]
    lam = max(rates)
    if lam == 0.0:
        return [float(x) for x in w]
    if lam * b > 700.0:
        raise ValueError("uniformization rate times bound too large")

    u = np.zeros((n, n))
    for s in range(n):
        if s in goal:
            u[s, s] = 1.0
            continue
        stay = 1.0 - rates[s] / lam
        u[s, s] += stay
        for t, p in vma.branch[s]:
            u[s, t] += (rates[s] / lam) * p

    pois = math.exp(-lam * b)
    cum = pois
    acc = pois * w
    k = 0
    while cum < 1.0 - tail and k < 10**7:
        k += 1
        w = u @ w
        pois *= lam * b / k
        cum += pois
        acc = acc + pois * w
    return [float(x) for x in acc]


# ---------------------------------------------------------------------------
# Monte Carlo simulation


@dataclass
class SimResult:
    mean: float
    stderr: float
    ci_low: float
    ci_high: float
    n_runs: int


def _run_once(vma, policy, kind, goal, rng, a, b, horizon):
    s = vma.initial
    t = 0.0
    zero_steps = 0
    jumps = 0
    time_in_goal = 0.0
    first_hit = math.inf
    while True:
        in_goal = s in goal
        if in_goal and math.isinf(first_hit):
            first_hit = t
        if kind == "et" and in_goal:
            return t
        if kind == "tbr" and not math.isinf(first_hit):
            return 1.0 if a <= first_hit <= b else 0.0

        if s in vma.ms:
            rate = vma.exit_rate[s]
            branch = vma.branch[s]
            if len(branch) == 1 and branch[0][0] == s:
                # absorbing: nothing changes any more
                if kind == "et":
                    return math.inf
                if kind == "tbr":
                    return 0.0
                if in_goal:
                    time_in_goal += max(horizon - t, 0.0)
                return time_in_goal / horizon
            sojourn = rng.exponential(1.0 / rate)
            if kind == "lra":
                stay = min(sojourn, max(horizon - t, 0.0))
                if in_goal:
                    time_in_goal += stay
            t += sojourn
            zero_steps = 0
            jumps += 1
            if kind == "tbr" and t > b:
                return 0.0
            if kind == "lra" and t >= horizon:
                return time_in_goal / horizon
            dist = branch
        else:
            label = policy[s]
            dist = dict(vma.ma.prob_transitions[s])[label]
            zero_steps += 1
            if zero_steps > _ZERO_TIME_STEP_CAP:
                raise ZenoGuardTripped(zero_steps)
        if jumps > _SIM_JUMP_CAP:
            raise MamaError("simulation exceeded the jump cap")
        uni = rng.random()
        cursor = 0.0
        nxt = dist[-1][0]
        for target, p in dist:
            cursor += p
            if uni < cursor:
                nxt = target
                break
        s = nxt


def simulate(
    vma: ValidatedMA,
    policy: dict[int, str],
    kind: str,
    goal: Iterable[int],
    n_runs: int,
    seed: int,
    a: float = 0.0,
    b: float | None = None,
    horizon: float = 1e4,
) -> SimResult:
    """Monte Carlo estimate under a fixed stationary policy.

    kind="et": expected time to the goal; kind="tbr": probability that the
    first goal visit lands in [a, b]; kind="lra": goal time fraction over a
    finite horizon (biased for small horizons).  Per-run generators are
    seeded from (seed, run index), so results do not depend on scheduling.
    """
    if kind not in ("et", "tbr", "lra"):
        raise ValueError(f"kind must be 'et', 'tbr' or 'lra', got {kind!r}")
    if kind == "tbr" and b is None:
        raise ValueError("tbr simulation needs an upper time bound")
    goal = check_goal(vma, goal)
    samples = []
    for i in range(n_runs):
        rng = np.random.default_rng((seed, i))
        samples.append(_run_once(vma, policy, kind, goal, rng, a, b, horizon))
    arr = np.array(samples, dtype=np.float64)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(n_runs)) if n_runs > 1 else math.inf
    return SimResult(
        mean=mean,
        stderr=stderr,
        ci_low=mean - 1.96 * stderr,
        ci_high=mean + 1.96 * stderr,
        n_runs=n_runs,
    )
