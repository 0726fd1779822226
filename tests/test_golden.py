"""Golden `mama run` outputs on the bundled models and the benchmark corpus.

Each case runs the CLI in process with `--output json --stats` and compares
stdout byte for byte, stderr and the exit code with the checked-in record
in `golden/cli_outputs.json`.  Each model is asked et, lra, [0, 0] (exact
zero-time propagation on the validated model), [0, 1] and [0.5, 1.5].
The stats' `wall_time_s` is the only field masked.  A change that claims
identical output rests on this test.

The benchmark families at seeds 1-3 and 150 seeded random draws are
recorded as digests in `golden/cli_digests.json`: the SHA-256 of the
masked stdout, with stderr and the exit code in full.  Each family runs
the benchmark's own et, lra and [0, b] queries, [b/2, b] and [0, 0]; each
draw et, lra, [0, 0], [0, 1] and [0.5, 1], all with `--mode both`.

To rewrite both records after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
MODELS = HERE.parent / "models"
RECORD = HERE / "golden" / "cli_outputs.json"
DIGESTS = HERE / "golden" / "cli_digests.json"
PERFBENCH = HERE.parent / "perfbench"

QUERIES = {
    "et": ["--query", "et", "--policy"],
    "lra": ["--query", "lra", "--policy"],
    "tbr-0-0": ["--query", "tbr", "--to", "0"],
    "tbr-0-1": ["--query", "tbr", "--to", "1"],
    "tbr-0.5-1.5": ["--query", "tbr", "--from", "0.5", "--to", "1.5"],
}
MODES = ("min", "max", "both")
_WALL = re.compile(r'("wall_time_s": )[^,\n}]+')


def cases() -> dict[str, list[str]]:
    """Case id -> argv after the model path, over every bundled model."""
    return {
        f"{model.name}-{query}-{mode}": [
            "run", str(MODELS / model.name), *args, "--mode", mode,
            "--output", "json", "--stats",
        ]
        for model in sorted(MODELS.glob("*.ma"))
        for query, args in QUERIES.items()
        for mode in MODES
    }


def observe(argv: list[str]) -> dict:
    """Exit code, stdout with the wall time masked, and stderr of one run."""
    from mama.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {
        "exit": code,
        "stdout": _WALL.sub(r'\1"<masked>"', out.getvalue()),
        "stderr": err.getvalue(),
    }


def _record() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


SEEDS = (1, 2, 3)
DRAWS = 150
BOTH = ["--mode", "both", "--output", "json", "--stats"]
DRAW_QUERIES = {
    "et": ["--query", "et", "--policy"],
    "lra": ["--query", "lra", "--policy"],
    "tbr-0-0": ["--query", "tbr", "--to", "0"],
    "tbr-0-1": ["--query", "tbr", "--to", "1", "--epsilon", "0.1"],
    "tbr-0.5-1": ["--query", "tbr", "--from", "0.5", "--to", "1", "--epsilon", "0.1"],
}


@functools.cache
def _perfbench():
    """The benchmark's `gen` and `run` modules, which are only read."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
        import run
    finally:
        sys.path.remove(str(PERFBENCH))
    return gen, run


@functools.cache
def _draw_texts() -> tuple[str, ...]:
    from mama import serialize

    from conftest import random_ma

    rng = random.Random(11)
    return tuple(
        serialize(vma.ma, goal)
        for vma, goal in (random_ma(rng, max_states=10, max_actions=3) for _ in range(DRAWS))
    )


DIGEST_MODELS = [f"{name}-{seed}" for name in ("random-ma", "bd-chain", "many-mecs")
                 for seed in SEEDS] + [f"draw-{i:03d}" for i in range(DRAWS)]


def digest_queries(model: str, path: Path) -> tuple[str, dict[str, list[str]]]:
    """The .ma text of a digest model and its query id -> argv."""
    if model.startswith("draw-"):
        text = _draw_texts()[int(model[5:])]
        return text, {q: ["run", str(path), *args, *BOTH] for q, args in DRAW_QUERIES.items()}
    gen, run = _perfbench()
    name, seed = model.rsplit("-", 1)
    b = run.HORIZON[name]
    tbr = run.query_argv(path, "tbr", b)
    return gen.FAMILIES[name](int(seed)).to_text(), {
        "et": run.query_argv(path, "et", b),
        "lra": run.query_argv(path, "lra", b),
        "tbr": tbr,
        "tbr-half": tbr + ["--from", repr(b / 2)],
        "tbr-0": run.query_argv(path, "tbr", 0),
    }


def digest(argv: list[str]) -> dict:
    """`observe`, with the masked stdout replaced by its SHA-256."""
    got = observe(argv)
    got["stdout"] = hashlib.sha256(got.pop("stdout").encode("utf-8")).hexdigest()
    return got


def _digests(model: str, root: Path) -> dict[str, dict]:
    path = root / "model.ma"
    text, queries = digest_queries(model, path)
    path.write_text(text, encoding="utf-8")
    return {f"{model}/{q}": digest(argv) for q, argv in queries.items()}


def test_record_covers_every_case():
    assert sorted(_record()) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_cli_output_matches_golden(case):
    argv = cases()[case]
    expected = _record()[case]
    got = observe(argv)
    assert got["exit"] == expected["exit"]
    assert got["stderr"] == expected["stderr"]
    assert got["stdout"].encode("utf-8") == expected["stdout"].encode("utf-8")


@functools.cache
def _digest_record() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_digest_record_covers_every_model():
    recorded = _digest_record()
    assert sorted({case.split("/")[0] for case in recorded}) == sorted(DIGEST_MODELS)


@pytest.mark.parametrize("model", DIGEST_MODELS)
def test_cli_digests_match_golden(model, tmp_path):
    recorded = _digest_record()
    for case, got in _digests(model, tmp_path).items():
        assert got == recorded[case], case


def _write() -> None:
    import tempfile

    RECORD.parent.mkdir(exist_ok=True)
    record = {case: observe(argv) for case, argv in cases().items()}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as root:
        digests = {}
        for model in DIGEST_MODELS:
            digests.update(_digests(model, Path(root)))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write()
