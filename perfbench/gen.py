"""Seeded generators for the benchmark's model families.

Each generator returns a `Family` in the benchmark's own representation
(used later by the correctness checks, independently of the package) and
renders it straight to `.ma` text.  Going through
`MarkovAutomaton.from_parts` would be quadratic in the state count.

Every state is either Markovian (rate edges only) or probabilistic
(actions only), and every state has outgoing transitions, so `validate`
changes nothing: no maximal-progress cuts, no deadlock self-loops.
Goals are written to `#GOALS` by name, because `parse` renumbers states.

The run seed always renumbers the states (`Family.relabel`), so each seed
gives a different file and interning order.  Where a family's work would
hinge on one extreme feature of the draw, the structure itself comes from
a fixed seed; see `random_ma`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Dist = list[tuple[int, float]]


@dataclass
class Family:
    """A generated model.

    `markov[i]` lists (target, rate) pairs and is empty for probabilistic
    states; `actions[i]` lists (label, [(target, probability), ...]) and is
    empty for Markovian states.  `names[i]` names state `i`; state 0 is
    the initial state.
    """

    prefix: str
    markov: list[Dist]
    actions: list[list[tuple[str, Dist]]]
    goal: list[int]

    @property
    def n(self) -> int:
        return len(self.markov)

    @property
    def names(self) -> list[str]:
        return [f"{self.prefix}{i}" for i in range(self.n)]

    def exit_rate(self, s: int) -> float:
        return sum(r for _, r in self.markov[s])

    def lambda_max(self) -> float:
        return max(self.exit_rate(s) for s in range(self.n) if self.markov[s])

    def descriptors(self) -> dict[str, float]:
        """Size of the induced decision process and its zero-time depth."""
        rows = sum(1 if self.markov[s] else len(self.actions[s]) for s in range(self.n))
        nonzeros = sum(len(self.markov[s]) for s in range(self.n)) + sum(
            len(dist) for acts in self.actions for _, dist in acts
        )
        return {
            "states": self.n,
            "markovian": sum(1 for edges in self.markov if edges),
            "probabilistic": sum(1 for acts in self.actions if acts),
            "action_rows": rows,
            "nonzeros": nonzeros,
            "zero_time_levels": self._zero_time_levels(),
        }

    def _zero_time_levels(self) -> int:
        """Longest chain of probabilistic states linked by action successors."""
        depth: dict[int, int] = {}

        def visit(s: int) -> int:
            stack = [(s, False)]
            while stack:
                u, done = stack.pop()
                if u in depth:
                    continue
                succ = {t for _, dist in self.actions[u] for t, _ in dist if self.actions[t]}
                if done:
                    depth[u] = 1 + max((depth[t] for t in succ), default=0)
                    continue
                stack.append((u, True))
                stack.extend((t, False) for t in succ if t not in depth)
            return depth[s]

        return max((visit(s) for s in range(self.n) if self.actions[s]), default=0)

    def relabel(self, seed: int) -> "Family":
        """The same model with states 1..n-1 renumbered by a seeded shuffle."""
        rest = list(range(1, self.n))
        random.Random(seed).shuffle(rest)
        new = [0] + rest  # new[old] = new index
        markov: list[Dist] = [[] for _ in range(self.n)]
        actions: list[list[tuple[str, Dist]]] = [[] for _ in range(self.n)]
        for s in range(self.n):
            markov[new[s]] = [(new[t], r) for t, r in self.markov[s]]
            actions[new[s]] = [
                (label, [(new[t], p) for t, p in dist]) for label, dist in self.actions[s]
            ]
        return Family(self.prefix, markov, actions, sorted(new[g] for g in self.goal))

    def to_text(self) -> str:
        names = self.names
        out = ["#INITIAL", names[0], "#GOALS", " ".join(names[g] for g in self.goal)]
        out.append("#TRANSITIONS")
        for s in range(self.n):
            if self.markov[s]:
                out.append(f"{names[s]} !")
                out.extend(f"* {names[t]} {r!r}" for t, r in self.markov[s])
            for label, dist in self.actions[s]:
                out.append(f"{names[s]} {label}")
                out.extend(f"* {names[t]} {p!r}" for t, p in dist)
        return "\n".join(out) + "\n"


def _scale_rates(markov: list[Dist], lam: float) -> None:
    """Scale every rate so that the largest exit rate is `lam`.

    The timed step count grows with the square of the largest exit rate;
    fixing it fixes the number of timed steps.
    """
    top = max(sum(r for _, r in edges) for edges in markov if edges)
    factor = lam / top
    for edges in markov:
        edges[:] = [(t, r * factor) for t, r in edges]


def _split(rng: random.Random, k: int) -> list[float]:
    """A random distribution over `k` outcomes whose sum is 1 to rounding."""
    if k == 1:
        return [1.0]
    weights = [rng.uniform(0.2, 1.0) for _ in range(k)]
    total = sum(weights)
    probs = [w / total for w in weights[:-1]]
    probs.append(1.0 - sum(probs))
    return probs


# The sweep counts of expected time and long-run average on a random model
# are set by its slowest-mixing region, an extreme of the draw that does not
# average out as the model grows: at 1000 states, six seeds gave 0.3-1.9 s
# for one expected-time query.  The topology is therefore drawn once from
# this fixed seed and the run seed only renumbers it.
RANDOM_MA_STRUCTURE_SEED = 1


def random_ma(seed: int, n: int = 500) -> Family:
    """Sparse random MA with layered zero-time structure.

    About half the states are probabilistic, with 1-3 actions whose support
    has 1-3 states.  The probabilistic states are split into 8
    index-ordered layers; a probabilistic successor is a Markovian state or
    a probabilistic state of a later layer, so the model is non-Zeno by
    construction.  Markovian states have 1-3 uniform successors with rates
    U(0.1, 3), scaled so the largest exit rate is 8.5.  5% of the
    Markovian states are goals.
    """
    levels = 8
    rng = random.Random(RANDOM_MA_STRUCTURE_SEED)
    kinds = ["M"] + [rng.choice("MP") for _ in range(n - 1)]
    ms = [i for i in range(n) if kinds[i] == "M"]
    ps = [i for i in range(n) if kinds[i] == "P"]
    layer_of = {s: (j * levels) // len(ps) for j, s in enumerate(ps)}
    later = {lv: [s for s in ps if layer_of[s] > lv] for lv in range(levels)}

    markov: list[Dist] = [[] for _ in range(n)]
    actions: list[list[tuple[str, Dist]]] = [[] for _ in range(n)]
    for s in ms:
        targets = rng.sample(range(n), rng.randint(1, 3))
        markov[s] = [(t, rng.uniform(0.1, 3.0)) for t in targets]
    for s in ps:
        pool = later[layer_of[s]]
        for a in range(rng.randint(1, 3)):
            support: list[int] = []
            for _ in range(rng.randint(1, 3)):
                t = rng.choice(pool) if pool and rng.random() < 0.5 else rng.choice(ms)
                if t not in support:
                    support.append(t)
            actions[s].append((f"a{a}", list(zip(support, _split(rng, len(support))))))
    _scale_rates(markov, 8.5)
    goal = sorted(rng.sample(ms, max(1, len(ms) // 20)))
    return Family("s", markov, actions, goal).relabel(seed)


def bd_chain(seed: int, n: int = 400) -> Family:
    """Birth-death chain with a probabilistic state at every 4th position.

    Markovian states move up at rate 2 and down at rate 1; a probabilistic
    state offers `fast` (to i+1) and `slow` (1/2 to i-1, 1/2 to i+1).  The
    top state is the goal and absorbing.  The structure is fixed; the seed
    only renumbers it.
    """
    markov: list[Dist] = [[] for _ in range(n)]
    actions: list[list[tuple[str, Dist]]] = [[] for _ in range(n)]
    top = n - 1
    for i in range(n):
        if i == top:
            markov[i] = [(i, 1.0)]
        elif i % 4 == 3:
            actions[i] = [("fast", [(i + 1, 1.0)]), ("slow", [(i - 1, 0.5), (i + 1, 0.5)])]
        elif i == 0:
            markov[i] = [(1, 2.0)]
        else:
            markov[i] = [(i + 1, 2.0), (i - 1, 1.0)]
    return Family("b", markov, actions, [top]).relabel(seed)


def many_mecs(seed: int, m: int = 40) -> Family:
    """A series of `m` three-state end components ending in a sink.

    Component c is Markovian x -> probabilistic y {stay -> z,
    alt -> 1/2 x 1/2 z, leave -> next x} -> Markovian z -> x.  The last
    `leave` enters an absorbing non-goal sink.  The seed draws the two
    rates of each component (U(0.5, 3), scaled so the largest is 2)
    and its goal, x or z; the work is a sum over components, so it
    concentrates.
    """
    rng = random.Random(seed)
    n = 3 * m + 1
    sink = n - 1
    markov: list[Dist] = [[] for _ in range(n)]
    actions: list[list[tuple[str, Dist]]] = [[] for _ in range(n)]
    goal = []
    for c in range(m):
        x, y, z = 3 * c, 3 * c + 1, 3 * c + 2
        nxt = x + 3 if c + 1 < m else sink
        markov[x] = [(y, rng.uniform(0.5, 3.0))]
        markov[z] = [(x, rng.uniform(0.5, 3.0))]
        actions[y] = [
            ("stay", [(z, 1.0)]),
            ("alt", [(x, 0.5), (z, 0.5)]),
            ("leave", [(nxt, 1.0)]),
        ]
        goal.append(rng.choice((x, z)))
    markov[sink] = [(sink, 1.0)]
    _scale_rates(markov, 2.0)
    return Family("c", markov, actions, goal).relabel(seed)


FAMILIES = {"random-ma": random_ma, "bd-chain": bd_chain, "many-mecs": many_mecs}
