"""Benchmark of `mama run` on three seeded model families.

    python3 perfbench/run.py --workload {random-ma,bd-chain,many-mecs}
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from its
`src/` directory, so nothing needs installing.  The run generates one model
from the seed, writes it as a `.ma` file, and then, for `--seconds`
seconds, repeats rounds of whole in-process `mama.cli.run` calls (one per
query, `--mode both --output json --stats`, plus `--policy` or
`--to B --epsilon E`) and direct loads of the model (read, `parse`,
`validate`).  The loop is closed: one call at a time, single thread.
Interpreter start-up is not timed.

With `--trace 0` each end-to-end time is the fastest of its samples (see
NOTES.md for why not the median); the sample count, median and slowest
sample go to stderr.  With
`--trace 1` each round runs every query once untraced and once with the
entry points of the package wrapped in spans (`spans.py`); the per-layer
metrics are medians over rounds of each layer's self time and counts
summed over the round's traced queries, and the span list is written to
`perfbench/_out/`.  Every captured output is checked (`check.py`) after
the timed loop.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
from spans import Tracer, per_request  # noqa: E402

EPSILON = 0.05
LOADS_PER_ROUND = 5

# Horizon b of the timed query per workload; every workload runs all three
# queries so that each end-to-end metric exists on each workload.
HORIZON = {"random-ma": 1.0, "bd-chain": 4.0, "many-mecs": 2.0}
QUERIES = ("et", "lra", "tbr")

# Self-time sums whose share of one query's traced wall time shows which
# layer dominates it: (metric, query, span names).
SHARES = [
    ("share.istar_of_tbr", "tbr", ["mdpsolve.zero_time_apply", "mdpsolve.zero_time_build"]),
    ("share.graph_of_et", "et", ["graph.check_non_zeno", "graph.mecs", "graph.almost_sure_reach"]),
    ("share.graph_of_lra", "lra", ["graph.check_non_zeno", "graph.mecs", "graph.almost_sure_reach"]),
    ("share.unichain_of_lra", "lra", ["longrun.lra_unichain"]),
]

LAYER_TIMES = [
    "parser.parse", "model.validate", "model.make_absorbing", "graph.check_non_zeno",
    "graph.mecs", "graph.almost_sure_reach", "mdpsolve.solve_ssp",
    "mdpsolve.zero_time_apply", "mdpsolve.zero_time_build", "timedreach.timed_reachability",
    "timedreach.discretise", "timedreach.step_loop", "exptime.expected_time",
    "longrun.lra", "longrun.lra_unichain", "cli.run",
]
LAYER_COUNTS = [
    "model.make_absorbing_calls", "graph.check_non_zeno_calls", "graph.mecs_calls",
    "graph.almost_sure_reach_calls", "mdpsolve.solve_ssp_calls", "mdpsolve.ssp_sweeps",
    "mdpsolve.zero_time_apply_calls", "timedreach.steps", "longrun.lra_unichain_calls",
    "longrun.unichain_sweeps",
]
DESCRIPTORS = [
    ("states", "count"), ("markovian", "count"), ("probabilistic", "count"),
    ("action_rows", "count"), ("nonzeros", "count"), ("mecs", "count"),
    ("lambda_max", "1/s"), ("zero_time_levels", "count"), ("tbr_steps", "count"),
]


def import_mama():
    """Import the package from this checkout's `src/`, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "mama" / "__init__.py").is_file():
        print(f"error: no mama sources under {src}; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import mama.cli
    import mama.oracle

    return mama


def query_argv(model: Path, query: str, b: float) -> list[str]:
    argv = ["run", str(model), "--query", query, "--mode", "both", "--output", "json", "--stats"]
    if query == "tbr":
        return argv + ["--to", repr(b), "--epsilon", repr(EPSILON)]
    return argv + ["--policy"]


def timed_call(mama, argv: list[str]) -> tuple[float, int, str]:
    buf = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = mama.cli.run(argv)
    return time.perf_counter() - start, code, buf.getvalue()


def timed_load(mama, model: Path) -> float:
    gc.collect()
    start = time.perf_counter()
    text = model.read_text(encoding="utf-8")
    ma, _ = mama.parse(text)
    mama.validate(ma)
    return time.perf_counter() - start


class Checker:
    """Checks every captured output; identical outputs share one full check."""

    def __init__(self, mama, fam: gen.Family, text: str, b: float):
        self.mama, self.fam, self.text, self.b = mama, fam, text, b
        self.first: dict[str, str] = {}
        self.verdicts: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stats: dict[str, dict] = {}
        self._vma = None

    def _full(self, query: str, payload: dict) -> list[str]:
        if query == "et":
            return check.check_et(self.fam, payload)
        if query == "lra":
            if self._vma is None:
                self._vma = self.mama.validate(self.mama.parse(self.text)[0])
            return check.check_lra(self.fam, payload, self._vma, self.mama.oracle)
        return check.check_tbr(self.fam, payload, self.b, EPSILON)

    def add(self, query: str, code: int, out: str) -> None:
        self.attempted += 1
        if code != 0:
            errors = [f"{query}: exit code {code}"]
        else:
            payload = json.loads(out)
            payload["stats"].pop("wall_time_s")
            self.stats.setdefault(query, payload["stats"])
            key = json.dumps(payload, sort_keys=True)
            if key not in self.verdicts:
                self.verdicts[key] = self._full(query, payload)
                if query in self.first:
                    self.verdicts[key].append(f"{query}: output differs from the first run")
                self.first.setdefault(query, key)
            errors = self.verdicts[key]
        if errors:
            self.failed += 1
            for error in errors:
                if error not in self.problems:
                    self.problems.append(error)


def describe(fam: gen.Family, checker: Checker, b: float) -> dict[str, float]:
    out: dict[str, float] = dict(fam.descriptors())
    stats = next(iter(checker.stats.values()), {})
    out["mecs"] = stats.get("mecs", 0)
    out["lambda_max"] = stats.get("lambda_max", fam.lambda_max())
    out["tbr_steps"] = check.timed_steps(fam.lambda_max(), b, EPSILON)
    return out


def measure(mama, workload: str, model: Path, seconds: float, traced: bool):
    """The timed loop; returns samples, outputs and, if traced, the tracer."""
    b = HORIZON[workload]
    argvs = {q: query_argv(model, q, b) for q in QUERIES}
    plain: dict[str, list[float]] = {q: [] for q in QUERIES}
    with_spans: dict[str, list[float]] = {q: [] for q in QUERIES}
    requests: list[dict[str, int]] = []  # per round: query -> request id
    outputs: list[tuple[str, int, str]] = []
    loads: list[float] = []
    tracer = Tracer() if traced else None
    deadline = time.perf_counter() + seconds
    while not requests or time.perf_counter() < deadline:
        ids = {}
        for q in QUERIES:
            elapsed, code, out = timed_call(mama, argvs[q])
            plain[q].append(elapsed)
            outputs.append((q, code, out))
            if tracer is not None:
                tracer.request += 1
                ids[q] = tracer.request
                tracer.install()
                try:
                    elapsed, code, out = timed_call(mama, argvs[q])
                finally:
                    tracer.uninstall()
                with_spans[q].append(elapsed)
                outputs.append((q, code, out))
        requests.append(ids)
        if not traced:
            loads.extend(timed_load(mama, model) for _ in range(LOADS_PER_ROUND))
    return plain, with_spans, requests, outputs, loads, tracer


def layer_metrics(tracer: Tracer, requests, with_spans, plain, desc) -> dict[str, dict]:
    rows = per_request(tracer)
    rounds: list[dict[str, float]] = []
    for round_ids in requests:
        total: dict[str, float] = {}
        for q, request in round_ids.items():
            for key, value in rows[request].items():
                if key == "wall":
                    continue
                total[key] = total.get(key, 0.0) + value
        for name, q, spans in SHARES:
            row = rows[round_ids[q]]
            total[name] = sum(row.get(s + "_s", 0.0) for s in spans) / row["wall"]
        rounds.append(total)

    def med(key: str) -> float:
        return statistics.median(r.get(key, 0.0) for r in rounds)

    metrics: dict[str, dict] = {}
    for name in LAYER_TIMES:
        metrics[name + "_s"] = {"value": med(name + "_s"), "unit": "s"}
    for name in LAYER_COUNTS:
        metrics[name] = {"value": med(name), "unit": "count"}
    for name, _, _ in SHARES:
        metrics[name] = {"value": med(name), "unit": "ratio"}
    overhead = sum(min(with_spans[q]) - min(plain[q]) for q in QUERIES)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for name, unit in DESCRIPTORS:
        metrics["workload." + name] = {"value": desc[name], "unit": unit}
    return metrics


def run_workload(args) -> int:
    mama = import_mama()
    fam = gen.FAMILIES[args.workload](args.seed)
    text = fam.to_text()
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    model = workdir / "model.ma"
    try:
        model.write_text(text, encoding="utf-8")
        plain, with_spans, requests, outputs, loads, tracer = measure(
            mama, args.workload, model, args.seconds, bool(args.trace)
        )
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    b = HORIZON[args.workload]
    checker = Checker(mama, fam, text, b)
    for q, code, out in outputs:
        checker.add(q, code, out)
    desc = describe(fam, checker, b)
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={len(requests)} "
          + " ".join(f"{k}={v}" for k, v in desc.items()), file=sys.stderr)

    for name, samples in [*((q + "_s", plain[q]) for q in QUERIES), ("setup_s", loads)]:
        if samples:
            ordered = sorted(samples)
            print(f"{args.workload} {name} samples={len(ordered)} min={ordered[0]:.6g} "
                  f"median={statistics.median(ordered):.6g} max={ordered[-1]:.6g} "
                  f"all={','.join(f'{x:.5g}' for x in samples)}", file=sys.stderr)
    if tracer is None:
        metrics = {f"{q}_s": {"value": min(plain[q]), "unit": "s"} for q in QUERIES}
        metrics["setup_s"] = {"value": min(loads), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        metrics["pass_ratio"] = {
            "value": 1.0 - checker.failed / checker.attempted, "unit": "ratio"
        }
    else:
        metrics = layer_metrics(tracer, requests, with_spans, plain, desc)
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans), encoding="utf-8")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is per workload."""
    status = 0
    for workload in HORIZON:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        status = status or (0 if result["correct"] else 1)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(HORIZON) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
