"""Command-line front end.

    mama run MODEL --query {et,lra,tbr} [--mode {min,max,both}] [options]

Loads a `.ma` model, runs one query, and prints per-state results as text
or JSON (schema frozen in docs/json.md).  Exit codes: 0 success, 1 usage
error, 2 model error, 3 numeric non-convergence, 4 Zeno model (the witness
states are printed), 5 oracle disagreement under --verify.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from . import graph, oracle
from .errors import (
    MamaError,
    NotConverged,
    ParseError,
    StepOverflow,
    ZenoModelError,
    ZenoSubgraph,
)
from .exptime import expected_time
from .longrun import MIN_RATIO_TOL, lra
from .model import ValidatedMA, resolve_goal, validate
from .parser import parse
from .timedreach import TimedQuery, timed_reachability

_USAGE_EXIT = 1
_MODEL_EXIT = 2
_NUMERIC_EXIT = 3
_ZENO_EXIT = 4
_VERIFY_EXIT = 5

VERIFY_MAX_STATES = 10
VERIFY_ET_TOL = 1e-7
VERIFY_LRA_TOL = 1e-6
VERIFY_TBR_SLACK = 1e-9


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise _ArgumentError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser of the command line, built once per process; parsing
    leaves it unchanged."""
    top = _Parser(prog="mama", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one query against a model")
    run_p.add_argument("model", help="path to the .ma model file")
    run_p.add_argument("--query", required=True, choices=("et", "lra", "tbr"))
    run_p.add_argument("--mode", default="both", choices=("min", "max", "both"))
    run_p.add_argument(
        "--goal", nargs="+", default=None,
        help="goal state ids (overrides the #GOALS section)",
    )
    run_p.add_argument("--from", dest="a", type=float, default=0.0,
                       help="interval lower bound (tbr)")
    run_p.add_argument("--to", dest="b", type=float, default=None,
                       help="interval upper bound (tbr)")
    run_p.add_argument("--epsilon", type=float, default=1e-3,
                       help="certified accuracy for tbr brackets")
    run_p.add_argument("--tol", type=float, default=1e-10,
                       help="convergence tolerance for iterative solves")
    run_p.add_argument("--output", default="text", choices=("text", "json"))
    run_p.add_argument("--policy", action="store_true", dest="show_policy",
                       help="report a witness policy (et, lra)")
    run_p.add_argument("--verify", action="store_true",
                       help="cross-check against the oracle on small models")
    run_p.add_argument("--stats", action="store_true", dest="show_stats",
                       help="report model and solver statistics")
    return top


def _read_threads_env() -> int:
    raw = os.environ.get("MAMA_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise _ArgumentError(f"MAMA_THREADS must be an integer, got {raw!r}")
    if value < 0:
        raise _ArgumentError("MAMA_THREADS must be >= 0")
    # Sweeps are Jacobi, so results never depend on this; the setting only
    # caps worker fan-out, and this implementation runs them sequentially.
    return value


_SCALARS = (str, int, float, bool, type(None))
_key = json.encoder.encode_basestring_ascii


def _list_item(v: float | str) -> str:
    return _key(v) if type(v) is str else float.__repr__(v)


def _to_json(obj, depth: int = 0) -> str:
    """The text of `json.dumps(obj, indent=2)` for `obj` at nesting `depth`.

    `json.dumps` takes its pure-Python encoder whenever it indents.  Here a
    container that holds only scalars is one call of the C encoder, with
    the line break and indent folded into its item separator, and a dict
    whose values are lists of finite floats and strings (an unreachable
    goal's "inf") joins their `float.__repr__` and string encoding, which
    is how the encoder writes them; other containers recurse.  Keys,
    strings and non-finite floats go through the encoder, so the bytes are
    those of `json.dumps`.  Every key of a nested dict must be a string.
    """
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    is_dict = isinstance(obj, dict)
    if not obj:
        return "{}" if is_dict else "[]"
    inner = "\n" + "  " * (depth + 1)
    items = obj.values() if is_dict else obj
    if all(isinstance(x, _SCALARS) for x in items):
        body = json.JSONEncoder(separators=("," + inner, ": ")).encode(obj)[1:-1]
    elif is_dict and all(
        type(x) is list and x
        and all(type(v) is str or type(v) is float and math.isfinite(v) for v in x)
        for x in items
    ):
        item = inner + "  "
        body = ("," + inner).join(
            f"{_key(key)}: [{item}{(',' + item).join(map(_list_item, x))}{inner}]"
            for key, x in obj.items()
        )
    elif is_dict:
        body = ("," + inner).join(
            f"{_key(key)}: {_to_json(x, depth + 1)}" for key, x in obj.items()
        )
    else:
        body = ("," + inner).join(_to_json(x, depth + 1) for x in obj)
    first, last = "{}" if is_dict else "[]"
    return first + inner + body + "\n" + "  " * depth + last


def _fmt_value(v: float):
    return "inf" if math.isinf(v) else v


def _fmt_text(v) -> str:
    if isinstance(v, str):
        return v
    return repr(float(v))


def _policy_names(vma: ValidatedMA, policy: dict[int, str]) -> dict[str, str]:
    return {vma.name(s): policy[s] for s in sorted(policy)}


def _run_modes(vma: ValidatedMA, goal: frozenset[int], args: argparse.Namespace, modes):
    """Run the query in every mode; returns per-mode results and the
    iterations summed over the modes.

    A timed query serves all its modes with one step loop, and its
    iterations are still that loop's steps once per mode.  A long-run
    query serves all its modes with one call, whose modes share each
    component's sweeps; its iterations are each mode's own, added up.
    """
    if args.query == "tbr":
        query = TimedQuery(
            goal=goal, a=args.a, b=args.b, eps=args.epsilon, mode=args.mode
        )
        res = timed_reachability(vma, query)
        per_mode = {
            mode: {
                "values": lower,
                "bounds": {"lower": lower, "upper": upper},
                "policy": None,
            }
            for mode, (lower, upper) in res.brackets.items()
        }
        return per_mode, (res.steps + res.steps_a) * len(modes)
    if args.query == "et":
        results = {mode: expected_time(vma, goal, mode, tol=args.tol) for mode in modes}
        policies = {mode: res.policy for mode, res in results.items()}
    else:
        results = lra(vma, goal, args.mode, tol=args.tol)
        if len(modes) == 1:
            results = {args.mode: results}
        policies = {mode: res.policy.flat() for mode, res in results.items()}
    per_mode = {
        mode: {
            "values": res.values,
            "bounds": None,
            "policy": _policy_names(vma, policies[mode]),
        }
        for mode, res in results.items()
    }
    return per_mode, sum(res.iterations for res in results.values())


def _verify(vma, goal, args: argparse.Namespace, mode: str, values, bounds) -> str | None:
    """Compare one mode's results against the oracle; None means agreement."""
    if args.query in ("et", "lra"):
        objective = args.query
        tol = VERIFY_ET_TOL if objective == "et" else VERIFY_LRA_TOL
        reference = oracle.enumerate_policies(vma, goal, objective, mode)
        for s in range(vma.n):
            got, want = values[s], reference[s]
            if math.isinf(got) != math.isinf(want):
                return (
                    f"{args.query}/{mode} at {vma.name(s)}: {got} vs oracle {want}"
                )
            if not math.isinf(got) and abs(got - want) > tol:
                return (
                    f"{args.query}/{mode} at {vma.name(s)}: {got} vs oracle "
                    f"{want} (tol {tol})"
                )
        return None
    hi = oracle.ctmc_transient(vma, goal, args.b)
    if args.a > 0.0:
        lo_part = oracle.ctmc_transient(vma, goal, args.a)
        reference = [h - l for h, l in zip(hi, lo_part)]
    else:
        reference = hi
    for s in range(vma.n):
        if not (
            bounds["lower"][s] - VERIFY_TBR_SLACK
            <= reference[s]
            <= bounds["upper"][s] + VERIFY_TBR_SLACK
        ):
            return (
                f"tbr/{mode} at {vma.name(s)}: oracle {reference[s]} outside "
                f"[{bounds['lower'][s]}, {bounds['upper'][s]}]"
            )
    return None


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _read_threads_env()
        if args.query == "tbr":
            if args.b is None:
                raise _ArgumentError("tbr queries need --to")
            try:
                TimedQuery(goal=frozenset(), a=args.a, b=args.b, eps=args.epsilon)
            except ValueError as exc:
                raise _ArgumentError(str(exc)) from None
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise _ArgumentError("--tol must be finite and positive")
        if args.query == "lra" and args.tol < MIN_RATIO_TOL:
            raise _ArgumentError(
                f"--tol below 2**-52 cannot be met by lra, got {args.tol!r}"
            )
    except _ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT

    started = time.perf_counter()
    try:
        with open(args.model, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return _MODEL_EXIT

    try:
        ma, file_goal = parse(text)
        vma = validate(ma)
        goal = file_goal if args.goal is None else resolve_goal(vma, args.goal)
    except (ParseError, MamaError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return _MODEL_EXIT
    if vma.warnings:
        sys.stderr.write("".join(f"warning: {w}\n" for w in vma.warnings))

    modes = ["min", "max"] if args.mode == "both" else [args.mode]
    try:
        per_mode, iterations = _run_modes(vma, goal, args, modes)
    except (ZenoModelError, ZenoSubgraph) as exc:
        print(f"zeno error: {exc}", file=sys.stderr)
        return _ZENO_EXIT
    except NotConverged as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT
    except StepOverflow as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    wall = time.perf_counter() - started

    verify_notes = []
    if args.verify:
        if vma.n > VERIFY_MAX_STATES:
            verify_notes.append(
                f"verify: skipped, model has {vma.n} > {VERIFY_MAX_STATES} states"
            )
        elif args.query == "tbr" and vma.ps:
            verify_notes.append("verify: skipped for tbr on models with probabilistic states")
        else:
            for mode in modes:
                outcome = _verify(
                    vma, goal, args, mode,
                    per_mode[mode]["values"], per_mode[mode]["bounds"],
                )
                if outcome is not None:
                    print(f"verify error: {outcome}", file=sys.stderr)
                    return _VERIFY_EXIT
                verify_notes.append(f"verify: {args.query}/{mode} agrees with oracle")

    payload = _assemble(vma, args, per_mode)
    if args.show_stats:
        payload["stats"] = {
            "states": vma.n,
            "markovian": len(vma.ms),
            "probabilistic": len(vma.ps),
            "mecs": len(graph.mecs(vma)),
            "lambda_max": vma.lambda_max,
            "iterations": iterations,
            "wall_time_s": wall,
        }

    if args.output == "json":
        print(_to_json(payload))
    else:
        _print_text(vma, args, per_mode, payload)
    for note in verify_notes:
        print(note, file=sys.stderr)
    return 0


def _assemble(vma, args: argparse.Namespace, per_mode) -> dict:
    """The JSON payload of docs/json.md.

    A single mode's values, bounds and policy appear as they are; with
    both modes each state's value is the list of the modes' values, and
    bounds and policies nest by mode.
    """
    names = vma.states
    results = list(per_mode.values())

    def by_mode(part):
        if len(results) == 1:
            return part(results[0])
        return {mode: part(res) for mode, res in per_mode.items()}

    columns = [[_fmt_value(v) for v in res["values"]] for res in results]
    payload: dict = {
        "query": args.query,
        "mode": args.mode,
        "values": dict(
            zip(names, columns[0] if len(columns) == 1 else map(list, zip(*columns)))
        ),
    }
    if results[0]["bounds"] is not None:
        payload["bounds"] = by_mode(
            lambda res: {side: dict(zip(names, res["bounds"][side])) for side in res["bounds"]}
        )
    if args.show_policy and results[0]["policy"] is not None:
        payload["policy"] = by_mode(lambda res: res["policy"])
    return payload


def _print_text(vma, args: argparse.Namespace, per_mode, payload) -> None:
    """One line per state: a timed query's bracket from the first mode's
    lower bound to the last mode's upper bound, else the modes' values,
    bracketed when there are two."""
    results = list(per_mode.values())
    for s, name in enumerate(vma.states):
        if args.query == "tbr":
            cells = [results[0]["bounds"]["lower"][s], results[-1]["bounds"]["upper"][s]]
        else:
            cells = [_fmt_value(res["values"][s]) for res in results]
        text = ", ".join(map(_fmt_text, cells))
        print(f"{name} {text}" if len(cells) == 1 else f"{name} [{text}]")
    if args.show_policy:
        for mode, res in per_mode.items():
            if res["policy"] is None:
                continue
            print(f"POLICY {mode}")
            for state, action in res["policy"].items():
                print(f"{state} {action}")
    if "stats" in payload:
        stats = payload["stats"]
        print(
            "STATS "
            + " ".join(f"{key}={stats[key]}" for key in stats)
        )


def main(argv=None) -> None:
    sys.exit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
