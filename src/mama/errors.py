"""Exception types shared across the package."""

from decimal import Decimal


class MamaError(Exception):
    """Base class for all errors raised by this package."""


class EmptyModel(MamaError):
    def __init__(self):
        super().__init__("model has no states")


class DistributionNotNormalized(MamaError):
    def __init__(self, state, action, total, line=None):
        self.state = state
        self.action = action
        self.total = total
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(
            f"distribution of action '{action}' at state '{state}' sums to "
            f"{total!r}, expected 1{where}"
        )


class NonPositiveRate(MamaError):
    def __init__(self, state, target, rate):
        self.state = state
        self.target = target
        self.rate = rate
        super().__init__(
            f"rate {rate!r} on edge {state} -> {target} must be positive"
        )


class DuplicateAction(MamaError):
    def __init__(self, state, label, line=None):
        self.state = state
        self.label = label
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"duplicate action '{label}' at state '{state}'{where}")


class UnknownState(MamaError):
    def __init__(self, state):
        self.state = state
        super().__init__(f"unknown state '{state}'")


class ParseError(MamaError):
    """Syntax error in a model file, with a 1-based line number."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class DuplicateMarkovianBlock(MamaError):
    def __init__(self, state, line=None):
        self.state = state
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"state '{state}' has more than one '!' block{where}")


class UnknownSection(MamaError):
    def __init__(self, line, name):
        self.line = line
        self.name = name
        super().__init__(f"line {line}: unknown section '{name}'")


class ZenoModelError(MamaError):
    """The model has a reachable cycle of probabilistic transitions."""

    def __init__(self, witness):
        self.witness = frozenset(witness)
        super().__init__(
            "model is Zeno: reachable probabilistic cycle through states "
            f"{{{', '.join(sorted(map(str, witness)))}}}"
        )


class ZenoSubgraph(MamaError):
    """A zero-time propagation step found a probabilistic cycle; `states`
    holds the names of the states it could not order."""

    def __init__(self, states):
        self.states = frozenset(states)
        super().__init__(
            "probabilistic cycle inside a zero-time propagation instance: "
            f"{{{', '.join(sorted(map(str, states)))}}}"
        )


class NotConverged(MamaError):
    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"iteration did not converge after {iterations} sweeps "
            f"(residual {residual!r})"
        )


class StepOverflow(MamaError):
    def __init__(self, steps, limit):
        self.steps = steps
        self.limit = limit
        # `steps` is exact and can run to hundreds of digits (beyond the
        # float range), so the message rounds it through Decimal.
        cap = f"2^{limit.bit_length() - 1}" if limit & (limit - 1) == 0 else limit
        super().__init__(
            f"discretisation needs {Decimal(steps):.2g} steps, more than the "
            f"{cap} cap; relax the accuracy"
        )


class TooManyPolicies(MamaError):
    def __init__(self, count, limit):
        self.count = count
        self.limit = limit
        super().__init__(f"{count} stationary policies exceed the {limit} cap")


class NotErgodic(MamaError):
    def __init__(self, detail=""):
        super().__init__(f"chain is not ergodic{': ' + detail if detail else ''}")


class SingularSystem(MamaError):
    def __init__(self):
        super().__init__("linear system is singular")


class LpUnbounded(MamaError):
    def __init__(self):
        super().__init__("linear program is unbounded")


class LpInfeasible(MamaError):
    def __init__(self):
        super().__init__("linear program is infeasible")


class ZenoGuardTripped(MamaError):
    def __init__(self, steps):
        self.steps = steps
        super().__init__(
            f"simulation took {steps} zero-time steps without a delay; "
            "the policy loops through probabilistic states"
        )


class EmptyMec(MamaError):
    def __init__(self):
        super().__init__("end component has no states")
