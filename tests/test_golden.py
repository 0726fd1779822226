"""Golden `mama run` outputs on the bundled models.

Each case runs the CLI in process with `--output json --stats` and compares
stdout byte for byte, stderr and the exit code with the checked-in record
in `golden/cli_outputs.json`.  The stats' `wall_time_s` is the only field
masked.  A change that claims identical output rests on this test.

To rewrite the record after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
MODELS = HERE.parent / "models"
RECORD = HERE / "golden" / "cli_outputs.json"

QUERIES = {
    "et": ["--query", "et", "--policy"],
    "lra": ["--query", "lra", "--policy"],
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


def _write() -> None:
    RECORD.parent.mkdir(exist_ok=True)
    record = {case: observe(argv) for case, argv in cases().items()}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write()
