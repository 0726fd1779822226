"""Quantitative analysis of Markov automata.

Three families of queries over one model class: minimal/maximal expected
time to a goal set, minimal/maximal long-run average fraction of time in
a goal set, and timed interval reachability probabilities with certified
error brackets.  Models are built in memory or read from the `.ma` text
format; `mama.oracle` holds independent reference engines for
cross-checking, which read the validated model and share no code with the
solvers.
"""

from . import errors, oracle
from .exptime import build_ssp_et, expected_time
from .graph import Mec, ZenoWitness, almost_sure_reach, check_non_zeno, mecs, sccs
from .longrun import LraPolicy, LraResult, build_ssp_lra, lra, lra_unichain
from .mdpsolve import SolveResult, SspInstance, solve_ssp
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
    "SspInstance",
    "TimedQuery",
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
    "validate",
]
