import json
import math
import random
import sys
import time

import pytest

from mama.cli import run

from conftest import MODELS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lra_max_two_mecs(capsys):
    code, out, _ = invoke(
        capsys, "run", str(MODELS / "two_mecs.ma"),
        "--query", "lra", "--mode", "max", "--goal", "s2",
    )
    assert code == 0
    lines = dict(line.split() for line in out.strip().splitlines())
    assert float(lines["s0"]) == pytest.approx(5.0 / 6.0, abs=1e-6)
    assert len(lines) == 6  # every state is reported


def test_et_json_schema(capsys):
    code, out, _ = invoke(
        capsys, "run", str(MODELS / "two_mecs.ma"),
        "--query", "et", "--mode", "min", "--output", "json", "--policy",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["query"] == "et"
    assert payload["mode"] == "min"
    assert payload["values"]["s5"] == "inf"
    assert payload["values"]["s0"] == pytest.approx(0.7, abs=1e-9)
    assert payload["policy"] == {"s1": "alpha", "s3": "beta"}


def test_tbr_bounds_json(capsys):
    code, out, _ = invoke(
        capsys, "run", str(MODELS / "erlang2.ma"),
        "--query", "tbr", "--to", "1", "--epsilon", "1e-3",
        "--mode", "max", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    want = 1 - 2 * math.exp(-1)
    assert payload["bounds"]["lower"]["s0"] <= want <= payload["bounds"]["upper"]["s0"]
    assert payload["bounds"]["upper"]["s0"] - payload["bounds"]["lower"]["s0"] <= 1e-3


def test_tbr_text_with_policy_prints_no_policy(capsys):
    # A timed query has no policy to show, so --policy adds no POLICY line.
    code, out, _ = invoke(
        capsys, "run", str(MODELS / "two_mecs.ma"),
        "--query", "tbr", "--to", "1", "--mode", "both", "--policy",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # one bracket per state
    assert not any(line.startswith("POLICY") for line in lines)


def test_mode_both_prints_intervals(capsys):
    code, out, _ = invoke(
        capsys, "run", str(MODELS / "two_mecs.ma"),
        "--query", "lra", "--mode", "both", "--goal", "s2",
    )
    assert code == 0
    first = out.strip().splitlines()[0]
    assert first.startswith("s0 [") and "," in first


def test_usage_errors_exit_1(capsys):
    assert invoke(capsys, "run", str(MODELS / "erlang2.ma"))[0] == 1
    assert invoke(
        capsys, "run", str(MODELS / "erlang2.ma"), "--query", "tbr"
    )[0] == 1
    assert invoke(
        capsys, "run", str(MODELS / "erlang2.ma"), "--query", "et", "--tol", "-1"
    )[0] == 1


def test_model_errors_exit_2(capsys, tmp_path):
    missing = tmp_path / "nope.ma"
    assert invoke(capsys, "run", str(missing), "--query", "et")[0] == 2
    bad = tmp_path / "bad.ma"
    bad.write_text("#INITIAL\ns\n#TRANSITIONS\ns a\n* s 0.6\n* t 0.5\n")
    code, _, err = invoke(capsys, "run", str(bad), "--query", "et")
    assert code == 2
    assert "line" in err
    code, _, err = invoke(
        capsys, "run", str(MODELS / "erlang2.ma"), "--query", "et",
        "--goal", "nonexistent",
    )
    assert code == 2


# Rates whose exit rate is not finite: one infinite rate, and two finite
# rates whose sum overflows.
NON_FINITE_RATES = {
    "inf-rate": "s !\n* t inf\n",
    "overflowing-sum": "s !\n* t 1e308\n* s 1e308\n",
}


@pytest.mark.parametrize("query", [["et"], ["lra"], ["tbr", "--to", "1"]], ids=["et", "lra", "tbr"])
@pytest.mark.parametrize("block", NON_FINITE_RATES.values(), ids=NON_FINITE_RATES.keys())
def test_non_finite_rates_are_model_errors(capsys, tmp_path, block, query):
    model = tmp_path / "rates.ma"
    model.write_text("#INITIAL\ns\n#GOALS\nt\n#TRANSITIONS\n" + block + "t !\n* t 1\n")
    code, out, err = invoke(capsys, "run", str(model), "--query", *query)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("model error: "), err


def test_zeno_exit_4_names_witness(capsys):
    code, _, err = invoke(capsys, "run", str(MODELS / "zeno.ma"), "--query", "et")
    assert code == 4
    assert "p" in err and "q" in err


# Probabilistic cycles p <-> q that `check_non_zeno` accepts: the first
# cannot be reached, the second can be left.  The timed query's zero-time
# levelling still refuses them.
UNLEVELLED_CYCLES = [
    "p a\n* q 1.0\nq a\n* p 1.0\n",
    "p a\n* q 0.5\n* m 0.5\nq a\n* p 1.0\n",
]


@pytest.mark.parametrize("cycle", UNLEVELLED_CYCLES)
def test_unlevelled_zero_time_cycle_is_a_zeno_error(capsys, tmp_path, cycle):
    model = tmp_path / "cycle.ma"
    model.write_text("#INITIAL\nm\n#GOALS\nm\n#TRANSITIONS\nm !\n* m 1.0\n" + cycle)
    code, out, err = invoke(capsys, "run", str(model), "--query", "tbr", "--to", "1")
    assert code == 4
    assert out == ""
    zeno = [line for line in err.splitlines() if not line.startswith("warning: ")]
    assert zeno == [
        "zeno error: probabilistic cycle inside a zero-time propagation instance: {p, q}"
    ], err
    code, out, _ = invoke(capsys, "run", str(model), "--query", "et")
    assert code == 0 and out


def test_zeno_error_names_only_the_states_on_the_cycle(capsys, tmp_path):
    # r leads into the p-q cycle but lies on none.
    model = tmp_path / "cycle.ma"
    model.write_text(
        "#INITIAL\nm\n#GOALS\nm\n#TRANSITIONS\nm !\n* m 1.0\n"
        "p a\n* q 1.0\nq a\n* p 1.0\nr a\n* p 1.0\n"
    )
    code, out, err = invoke(capsys, "run", str(model), "--query", "tbr", "--to", "1")
    assert code == 4
    assert out == ""
    assert err.splitlines()[-1] == (
        "zeno error: probabilistic cycle inside a zero-time propagation instance: {p, q}"
    ), err


def test_random_timed_queries_answer_or_exit_4(capsys, tmp_path):
    from mama import serialize

    from conftest import random_ma

    rng = random.Random(11)
    refused = 0
    for _ in range(150):
        vma, goal = random_ma(rng, max_states=10, max_actions=3)
        model = tmp_path / "random.ma"
        model.write_text(serialize(vma.ma, goal))
        code, out, err = invoke(
            capsys, "run", str(model), "--query", "tbr", "--from", "0.125",
            "--to", "0.25", "--epsilon", "0.1",
        )
        assert code in (0, 4), err
        if code == 4:
            refused += 1
            assert out == ""
            assert err.splitlines()[-1].startswith("zeno error: "), err
            assert "Traceback" not in err
    assert refused > 0


def test_verify_agreement(capsys):
    code, _, err = invoke(
        capsys, "run", str(MODELS / "two_mecs.ma"),
        "--query", "lra", "--mode", "both", "--goal", "s2", "--verify",
    )
    assert code == 0
    assert "agrees with oracle" in err
    code, _, err = invoke(
        capsys, "run", str(MODELS / "erlang2.ma"),
        "--query", "tbr", "--to", "1", "--mode", "max", "--verify",
    )
    assert code == 0
    assert "agrees with oracle" in err


def test_verify_interval_query(capsys):
    code, _, err = invoke(
        capsys, "run", str(MODELS / "single_exp.ma"),
        "--query", "tbr", "--from", "0.5", "--to", "1", "--mode", "max", "--verify",
    )
    assert code == 0
    assert "agrees with oracle" in err


@pytest.mark.parametrize("mode", ["min", "max", "both"])
def test_verify_skip_note_printed_once(capsys, mode):
    # two_mecs.ma has probabilistic states, which the tbr oracle cannot
    # check; one note says so, whatever the number of modes.
    code, _, err = invoke(
        capsys, "run", str(MODELS / "two_mecs.ma"),
        "--query", "tbr", "--to", "1", "--mode", mode, "--verify",
    )
    assert code == 0
    note = "verify: skipped for tbr on models with probabilistic states"
    assert err.splitlines().count(note) == 1
    assert "agrees with oracle" not in err


def test_verify_skips_models_over_the_state_limit(capsys, tmp_path):
    from mama.cli import VERIFY_MAX_STATES

    n = VERIFY_MAX_STATES + 1
    model = tmp_path / "chain.ma"
    model.write_text(
        f"#INITIAL\ns0\n#GOALS\ns{n - 1}\n#TRANSITIONS\n"
        + "".join(f"s{i} !\n* s{i + 1} 1.0\n" for i in range(n - 1))
    )
    code, out, err = invoke(capsys, "run", str(model), "--query", "et", "--verify")
    assert code == 0 and out
    assert err.splitlines() == [f"verify: skipped, model has {n} > {VERIFY_MAX_STATES} states"]


def test_verify_disagreement_exits_5(capsys, monkeypatch):
    from mama import cli

    solve = cli.expected_time

    def shifted(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.values = [v + 1e-3 for v in res.values]
        return res

    monkeypatch.setattr(cli, "expected_time", shifted)
    code, out, err = invoke(
        capsys, "run", str(MODELS / "two_mecs.ma"),
        "--query", "et", "--mode", "min", "--verify",
    )
    assert code == 5
    assert out == ""
    assert err.splitlines() == [
        f"verify error: et/min at s0: {0.7 + 1e-3} vs oracle 0.7 (tol 1e-07)"
    ], err


def test_verify_reports_an_infinity_only_one_side_has(capsys, monkeypatch):
    from mama import cli

    monkeypatch.setattr(
        cli.oracle, "enumerate_policies", lambda vma, goal, objective, mode: [math.inf] * vma.n
    )
    code, out, err = invoke(
        capsys, "run", str(MODELS / "two_mecs.ma"),
        "--query", "et", "--mode", "min", "--verify",
    )
    assert code == 5
    assert out == ""
    assert err.splitlines() == ["verify error: et/min at s0: 0.7 vs oracle inf"], err


def test_verify_reports_an_oracle_value_outside_the_bracket(capsys, monkeypatch):
    from mama import cli

    monkeypatch.setattr(cli.oracle, "ctmc_transient", lambda vma, goal, b: [1.5] * vma.n)
    code, out, err = invoke(
        capsys, "run", str(MODELS / "erlang2.ma"),
        "--query", "tbr", "--to", "1", "--mode", "max", "--verify",
    )
    assert code == 5
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("verify error: tbr/max at s0: oracle 1.5 outside ["), err


def test_non_convergence_exits_3(capsys, monkeypatch):
    from mama import cli
    from mama.errors import NotConverged

    def stalled(*args, **kwargs):
        raise NotConverged(7, 0.5)

    monkeypatch.setattr(cli, "expected_time", stalled)
    code, out, err = invoke(capsys, "run", str(MODELS / "two_mecs.ma"), "--query", "et")
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "numeric error: iteration did not converge after 7 sweeps (residual 0.5)"
    ]


def test_byte_identical_runs(capsys):
    argv = (
        "run", str(MODELS / "queue.ma"), "--query", "et",
        "--mode", "both", "--output", "json",
    )
    code1, out1, _ = invoke(capsys, *argv)
    code2, out2, _ = invoke(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_threads_env_validated(capsys, monkeypatch):
    monkeypatch.setenv("MAMA_THREADS", "junk")
    assert invoke(
        capsys, "run", str(MODELS / "erlang2.ma"), "--query", "et"
    )[0] == 1
    monkeypatch.setenv("MAMA_THREADS", "4")
    code, out_a, _ = invoke(
        capsys, "run", str(MODELS / "queue.ma"), "--query", "lra",
        "--mode", "both", "--output", "json",
    )
    monkeypatch.setenv("MAMA_THREADS", "0")
    _, out_b, _ = invoke(
        capsys, "run", str(MODELS / "queue.ma"), "--query", "lra",
        "--mode", "both", "--output", "json",
    )
    assert code == 0 and out_a == out_b


def test_negative_threads_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("MAMA_THREADS", "-1")
    code, out, err = invoke(capsys, "run", str(MODELS / "erlang2.ma"), "--query", "et")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["usage error: MAMA_THREADS must be >= 0"]


def test_stats_reported(capsys):
    code, out, _ = invoke(
        capsys, "run", str(MODELS / "queue.ma"), "--query", "et",
        "--mode", "min", "--stats", "--output", "json",
    )
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["states"] == 8
    assert stats["markovian"] == 5
    assert stats["probabilistic"] == 3
    assert stats["mecs"] == 1
    assert stats["lambda_max"] == 4.0
    assert stats["iterations"] > 0
    assert stats["wall_time_s"] >= 0.0


def test_validation_warnings_go_to_stderr_in_one_write(capsys, monkeypatch, tmp_path):
    # s loses its rate edge to maximal progress; u cannot be reached.
    model = tmp_path / "warned.ma"
    model.write_text(
        "#INITIAL\ns\n#GOALS\ng\n#TRANSITIONS\n"
        "s a\n* g 1\ns !\n* g 2\ng !\n* g 1\nu !\n* g 1\n"
    )
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(sys, "stderr", Recorder())
    code, out, _ = invoke(capsys, "run", str(model), "--query", "et", "--mode", "min")
    assert code == 0
    assert out == "s 0.0\ng 0.0\nu 1.0\n"
    assert writes == [
        "warning: state 's': maximal progress drops 1 Markovian edge(s)\n"
        "warning: state 'u' is unreachable from the initial state\n"
    ]


@pytest.mark.parametrize("query", ["et", "lra"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-10"])
def test_unmeetable_tolerance_is_a_usage_error(capsys, query, tol):
    # A NaN or zero tolerance is never met, so the solve would not end.
    code, out, err = invoke(
        capsys, "run", str(MODELS / "two_mecs.ma"), "--query", query, f"--tol={tol}"
    )
    assert code == 1
    assert out == ""
    assert err == "usage error: --tol must be finite and positive\n"


@pytest.mark.parametrize(
    "interval", [["--to", "inf"], ["--from", "inf", "--to", "inf"], ["--from", "inf", "--to", "1"]]
)
def test_infinite_interval_is_a_usage_error(capsys, interval):
    code, out, err = invoke(
        capsys, "run", str(MODELS / "two_mecs.ma"), "--query", "tbr", *interval
    )
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "model, interval",
    [
        ("two_mecs.ma", ["--from", "0.1", "--to", "0.3", "--epsilon", "0.01"]),
        ("two_mecs.ma", ["--from", "0.1", "--to", "0.3", "--epsilon", "0.4"]),
        ("erlang2.ma", ["--from", "0.2", "--to", "1"]),
    ],
)
def test_decimal_interval_answers(capsys, model, interval):
    # No step width divides both 0.1 and 0.2 (or 0.2 and 0.8) exactly in
    # binary; each phase of the query steps on a grid of its own.
    code, out, err = invoke(
        capsys, "run", str(MODELS / model), "--query", "tbr", "--mode", "both",
        "--output", "json", *interval,
    )
    assert code == 0, err
    for bracket in json.loads(out)["bounds"].values():
        assert all(0.0 <= bracket["lower"][s] <= bracket["upper"][s] <= 1.0
                   for s in bracket["lower"])


def test_step_overflow_is_a_short_usage_error(capsys):
    # The exact step count has hundreds of digits; the message rounds it.
    for interval in (["--to", "1e308"], ["--from", "1", "--to", "1e300"]):
        code, out, err = invoke(
            capsys, "run", str(MODELS / "two_mecs.ma"), "--query", "tbr", *interval
        )
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: discretisation needs ")
        assert "2^40 cap" in err
        assert err.count("\n") == 1 and len(err) < 200, err


@pytest.mark.parametrize("tol", ["1e-300", "1e-16"])
def test_lra_tolerance_below_one_ulp_is_a_usage_error(capsys, tol):
    # A ratio in [0, 1] cannot be bisected finer than one ulp of 1.
    started = time.perf_counter()
    code, out, err = invoke(
        capsys, "run", str(MODELS / "two_mecs.ma"), "--query", "lra",
        "--mode", "max", "--tol", tol,
    )
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert out == ""
    assert err == f"usage error: --tol below 2**-52 cannot be met by lra, got {float(tol)!r}\n"


@pytest.mark.parametrize("name", ["two_mecs.ma", "queue.ma"])
def test_lra_tolerance_just_above_one_ulp_answers(capsys, name):
    code, out, err = invoke(
        capsys, "run", str(MODELS / name), "--query", "lra", "--tol", "2.3e-16"
    )
    assert code == 0, err
    assert out


def test_fine_tolerance_still_answers_expected_time(capsys):
    code, out, _ = invoke(
        capsys, "run", str(MODELS / "two_mecs.ma"), "--query", "et", "--tol", "1e-300"
    )
    assert code == 0
    assert out


def _nested(rng: random.Random, depth: int = 0):
    """A random JSON-able value: scalars of every kind, lists of floats,
    dicts of value lists, empty containers and non-ASCII keys."""
    pick = rng.random()
    if depth > 3 or pick < 0.45:
        return rng.choice([
            0, -7, 2**70, True, False, None, 1.5, -0.0, 1e-300, 1e300, rng.random(),
            math.inf, -math.inf, math.nan, "", "inf", "é☃", 'q"\\\n\t\x00',
        ])
    keys = ["s0", "a b", "é", "ключ", "☃", "\x7f", str(rng.random())]
    if pick < 0.65:
        return [_nested(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if pick < 0.75:
        return [rng.choice([rng.random(), 1e16, -2.5]) for _ in range(rng.randint(0, 3))]
    if pick < 0.85:
        # Value lists as et and lra print them: finite floats, some beside
        # "inf", and the non-finite floats the encoder spells its own way.
        odd = ["inf", "é☃", math.inf, -math.inf, math.nan]
        return {rng.choice(keys): [rng.random() if rng.random() < 0.7 else rng.choice(odd)
                                   for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 4))}
    return {rng.choice(keys): _nested(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def test_json_text_is_json_dumps_byte_for_byte(monkeypatch, capsys):
    from mama import cli

    from test_golden import cases

    payloads = []
    assemble = cli._assemble

    def recorded(*args):
        payloads.append(assemble(*args))  # `run` adds the stats afterwards
        return payloads[-1]

    monkeypatch.setattr(cli, "_assemble", recorded)
    for argv in cases().values():
        run(argv)
    capsys.readouterr()
    assert len(payloads) == 75  # five queries in three modes on five non-Zeno models
    rng = random.Random(3)
    payloads += [_nested(rng) for _ in range(3000)]
    payloads += [{}, [], {"k": {}}, [[]], {"x": None}, (1.0, 2.0), {"v": [1.0, "inf"]}]
    for payload in payloads:
        assert cli._to_json(payload).encode() == json.dumps(payload, indent=2).encode()


def test_repeated_runs_in_one_process_match_fresh_ones(capsys, tmp_path):
    # The argument parser is built once per process; every call, including
    # one after a usage error, answers as a fresh interpreter would.
    import os
    import subprocess

    two, queue = str(MODELS / "two_mecs.ma"), str(MODELS / "queue.ma")
    argvs = [
        ["run", two, "--query", "et", "--mode", "min"],
        ["run", two, "--query", "tbr"],
        ["run", queue, "--query", "lra", "--output", "json", "--policy"],
        ["walk", two],
        ["run", two, "--query", "tbr", "--to", "1", "--goal", "s1", "--mode", "max"],
        ["run", two, "--query", "et", "--mode", "sideways"],
        ["run", str(tmp_path / "missing.ma"), "--query", "et"],
        ["run", two, "--query", "et", "--mode", "min"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(MODELS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    ))
    codes = []
    for argv in argvs:
        here = invoke(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "mama.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert here == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(here[0])
    assert codes == [0, 1, 0, 1, 0, 1, 2, 0]
