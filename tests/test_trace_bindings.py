"""The benchmark's tracer still finds every entry point it wraps.

`perfbench/spans.py` patches package functions by module and attribute
name; a rename inside the package would silently drop a per-layer metric.
The tracer is only read from `perfbench/`, never modified.
"""

from __future__ import annotations

import json

import mama.cli

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
        code = mama.cli.run(
            ["run", str(MODELS / "two_mecs.ma"), "--query", "tbr", "--to", "1"]
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
        # quotient.
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
        "model.make_absorbing",
    ):
        assert et_recorded.count(name) == 2, name
    # Together the three queries pass through every wrapped entry point, so
    # each per-layer metric of the benchmark reads a recorded span.
    assert {span["name"] for span in tracer.spans} == {
        name for name, _, _ in spans.ENTRY_POINTS
    }
    for owner_path, attr, original in originals:
        assert getattr(spans._resolve(owner_path), attr) is original, (
            owner_path,
            attr,
        )


def test_tracer_sees_one_step_loop_for_both_modes(monkeypatch, capsys):
    # Both directions of a timed query share the absorbed model, the
    # discretisation, the zero-time levels and the step loop, so every
    # step is one i*-phase call for both modes together.
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
    assert steps == [450]  # ceil(3^2 * 1^2 / (2 * 0.01)) rounds, run once
    assert json.loads(out)["stats"]["iterations"] == 2 * 450
    for name in (
        "timedreach.timed_reachability",
        "timedreach.step_loop",
        "timedreach.discretise",
        "mdpsolve.zero_time_build",
        "model.make_absorbing",
        "graph.check_non_zeno",
    ):
        assert names.count(name) == 1, name
    # One application before the first step and one after each step.
    assert names.count("mdpsolve.zero_time_apply") == 450 + 1
    loop = names.index("timedreach.step_loop")
    assert all(
        span["parent"] == loop
        for span in tracer.spans
        if span["name"] in ("mdpsolve.zero_time_apply", "mdpsolve.zero_time_build")
    )


def test_tracer_sees_one_discretisation_for_an_interval(monkeypatch, capsys):
    # Phase two of an [a, b] query continues on phase one's discretised
    # absorbed model, zero-time levels included; only phase one runs
    # through `step_bounded_reach`.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = mama.cli.run(
            ["run", str(MODELS / "two_mecs.ma"), "--query", "tbr", "--from", "0.5",
             "--to", "1.5", "--epsilon", "0.01"]
        )
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert code == 0
    names = [span["name"] for span in tracer.spans]
    for name in (
        "timedreach.discretise",
        "model.make_absorbing",
        "timedreach.step_loop",
        "mdpsolve.zero_time_build",
    ):
        assert names.count(name) == 1, name
