"""The benchmark's tracer still finds every entry point it wraps.

`perfbench/spans.py` patches package functions by module and attribute
name; a rename inside the package would silently drop a per-layer metric.
The tracer is only read from `perfbench/`, never modified.
"""

from __future__ import annotations

import json

import mama.cli
from mama.timedreach import TAIL_SHARE, poisson_weights

from conftest import MODELS

PERFBENCH = MODELS.parent / "perfbench"


def test_tracer_records_timed_spans_and_restores_bindings(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = [
        (owner_path, attr, getattr(spans._resolve(owner_path), attr))
        for _, _, bindings in spans.ENTRY_POINTS
        for owner_path, attr in bindings
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        # An interval with a > 0 always runs the discretisation, so its
        # spans are recorded.
        code = mama.cli.run(
            ["run", str(MODELS / "two_mecs.ma"), "--query", "tbr", "--from", "0.5",
             "--to", "1"]
        )
        tbr_spans = len(tracer.spans)
        tbr_counts = len(tracer.counts)
        # The MEC decomposition and the Zeno verdict are stored on the
        # model after the first call; later calls still pass through the
        # public names, so the graph spans stay recorded.
        lra_code = mama.cli.run(
            ["run", str(MODELS / "two_mecs.ma"), "--query", "lra",
             "--mode", "both", "--stats"]
        )
        lra_spans = len(tracer.spans)
        lra_counts = len(tracer.counts)
        # Expected time reaches the solver through the names `exptime`
        # imports; both modes solve, and the minimum solves the collapsed
        # quotient.  No query builds an absorbed model.
        et_code = mama.cli.run(
            ["run", str(MODELS / "two_mecs.ma"), "--query", "et", "--mode", "both"]
        )
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert code == 0
    recorded = {span["name"] for span in tracer.spans[:tbr_spans]}
    for name in (
        "mdpsolve.zero_time_apply",
        "mdpsolve.zero_time_build",
        "timedreach.step_loop",
    ):
        assert name in recorded
    assert lra_code == 0
    lra_recorded = {span["name"] for span in tracer.spans[tbr_spans:lra_spans]}
    for name in ("graph.mecs", "graph.check_non_zeno"):
        assert name in lra_recorded
    # One unichain solve per component and mode; the tracer reads the
    # sweep count from `result[2]`, which must stay an int.
    unichain = [
        span for span in tracer.spans[tbr_spans:lra_spans]
        if span["name"] == "longrun.lra_unichain"
    ]
    assert len(unichain) == 4
    sweeps = [
        amount for _, key, amount in tracer.counts[tbr_counts:lra_counts]
        if key == "longrun.unichain_sweeps"
    ]
    assert len(sweeps) == 4
    assert all(type(amount) is int for amount in sweeps), sweeps
    assert et_code == 0
    et_recorded = [span["name"] for span in tracer.spans[lra_spans:]]
    for name in (
        "mdpsolve.solve_ssp",
        "graph.almost_sure_reach",
    ):
        assert et_recorded.count(name) == 2, name
    assert "model.make_absorbing" not in et_recorded
    # Together the three queries pass through every wrapped entry point but
    # `make_absorbing`, which no query calls, so each other per-layer
    # metric of the benchmark reads a recorded span.
    every = {span["name"] for span in tracer.spans}
    assert "model.make_absorbing" not in every
    assert every == {name for name, _, _ in spans.ENTRY_POINTS} - {"model.make_absorbing"}
    for owner_path, attr, original in originals:
        assert getattr(spans._resolve(owner_path), attr) is original, (
            owner_path,
            attr,
        )


def test_tracer_sees_one_step_loop_for_both_modes(monkeypatch, capsys):
    # This [0, b] query is answered by uniformisation.  Both directions
    # share the model, the zero-time levels and the rounds, no absorbed
    # model is built, and no discretisation runs.  The tracer reads the step count from the
    # result, and the CLI reports it once per mode.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = mama.cli.run(
            ["run", str(MODELS / "two_mecs.ma"), "--query", "tbr", "--mode", "both",
             "--to", "1", "--epsilon", "0.01", "--output", "json", "--stats"]
        )
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out

    assert code == 0
    names = [span["name"] for span in tracer.spans]
    steps = [amount for _, key, amount in tracer.counts if key == "timedreach.steps"]
    jumps = len(poisson_weights(3.0 * 1.0, 0.01 * TAIL_SHARE)[0]) - 1  # K
    assert steps == [2 * jumps + 1] == [19]
    assert all(type(amount) is int for amount in steps), steps
    assert json.loads(out)["stats"]["iterations"] / 2 == steps[0]
    for name in (
        "timedreach.timed_reachability",
        "mdpsolve.zero_time_build",
        "graph.check_non_zeno",
    ):
        assert names.count(name) == 1, name
    assert names.count("model.make_absorbing") == 0
    assert "timedreach.discretise" not in names
    assert "timedreach.step_loop" not in names
    # The knows-N bound applies the i*-phase once before its K rounds and
    # once after each, and the jump-counting recursion once in each of its
    # K + 1 rounds.  Both run side by side in one loop of K + 1 rounds, so
    # each round applies the i*-phase once to all four copies.
    assert names.count("mdpsolve.zero_time_apply") == jumps + 1 == 10
    query = names.index("timedreach.timed_reachability")
    assert all(
        span["parent"] == query
        for span in tracer.spans
        if span["name"] in ("mdpsolve.zero_time_apply", "mdpsolve.zero_time_build")
    )


def test_tracer_sees_one_discretisation_per_interval_phase(monkeypatch, capsys):
    # Each phase of an [a, b] query discretises the model at its own step
    # width; both read the one set of zero-time levels, and only phase one
    # runs through `step_bounded_reach`.  Both directions share every
    # step, and no absorbed model is built.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = mama.cli.run(
            ["run", str(MODELS / "two_mecs.ma"), "--query", "tbr", "--mode", "both",
             "--from", "0.5", "--to", "1.5", "--epsilon", "0.01", "--output", "json",
             "--stats"]
        )
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out

    assert code == 0
    names = [span["name"] for span in tracer.spans]
    assert names.count("timedreach.discretise") == 2
    for name in (
        "timedreach.step_loop",
        "mdpsolve.zero_time_build",
    ):
        assert names.count(name) == 1, name
    assert names.count("model.make_absorbing") == 0
    # With W = (b - a) + 2a = 2, a phase of horizon h takes
    # ceil(h * 3^2 * W / (2 * 0.01)) steps: 900 in phase one (b - a = 1)
    # and 450 in phase two (a = 0.5).
    steps = [amount for _, key, amount in tracer.counts if key == "timedreach.steps"]
    assert steps == [900 + 450]
    assert json.loads(out)["stats"]["iterations"] == 2 * steps[0]
    # One application before each phase's steps and one after each step.
    assert names.count("mdpsolve.zero_time_apply") == 900 + 450 + 2
