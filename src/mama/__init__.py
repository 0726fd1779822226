"""Quantitative analysis of Markov automata.

Three families of queries over one model class: minimal/maximal expected
time to a goal set, minimal/maximal long-run average fraction of time in
a goal set, and timed interval reachability probabilities with certified
error brackets.  Models are built in memory or read from the `.ma` text
format; `mama.oracle` holds independent reference engines for
cross-checking.
"""

from . import errors, oracle
from .exptime import build_ssp_et, expected_time
from .graph import Mec, ZenoWitness, almost_sure_reach, check_non_zeno, mecs, sccs
from .longrun import (
    LraPolicy,
    LraResult,
    TwoCostMdp,
    build_ssp_lra,
    lra,
    lra_unichain,
    two_cost_mdp,
)
from .mdpsolve import (
    SolveResult,
    SspAction,
    SspInstance,
    solve_ssp,
    zero_time_reach,
)
from .model import (
    BOT,
    MarkovAutomaton,
    ValidatedMA,
    make_absorbing,
    resolve_goal,
    validate,
)
from .parser import parse, serialize
from .timedreach import (
    BoundedResult,
    DiscretisedMA,
    TimedQuery,
    choose_delta,
    discretise,
    step_bounded_reach,
    timed_reachability,
)

__version__ = "0.1.0"

__all__ = [
    "BOT",
    "BoundedResult",
    "DiscretisedMA",
    "LraPolicy",
    "LraResult",
    "MarkovAutomaton",
    "Mec",
    "SolveResult",
    "SspAction",
    "SspInstance",
    "TimedQuery",
    "TwoCostMdp",
    "ValidatedMA",
    "ZenoWitness",
    "almost_sure_reach",
    "build_ssp_et",
    "build_ssp_lra",
    "check_non_zeno",
    "choose_delta",
    "discretise",
    "errors",
    "expected_time",
    "lra",
    "lra_unichain",
    "make_absorbing",
    "mecs",
    "oracle",
    "parse",
    "resolve_goal",
    "sccs",
    "serialize",
    "solve_ssp",
    "step_bounded_reach",
    "timed_reachability",
    "two_cost_mdp",
    "validate",
    "zero_time_reach",
]
