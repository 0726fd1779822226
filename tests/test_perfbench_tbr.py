"""The benchmark's own timed-reachability check passes on its model families.

`perfbench/run.py` checks every bracket it captures only after its timed
loop, so a bracket fault would first show as a failed benchmark run.  This
test generates the same models, runs the same `mama run` query and applies
the same check.  Files under `perfbench/` are only read.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

import mama.cli

from conftest import MODELS

PERFBENCH = MODELS.parent / "perfbench"


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["random-ma", "bd-chain", "many-mecs"])
def test_benchmark_tbr_output_passes_its_check(monkeypatch, tmp_path, workload, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import check
    import gen
    import run

    fam = gen.FAMILIES[workload](seed)
    model = tmp_path / "model.ma"
    model.write_text(fam.to_text(), encoding="utf-8")
    b = run.HORIZON[workload]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mama.cli.run(run.query_argv(model, "tbr", b))
    assert code == 0
    payload = json.loads(buf.getvalue())
    assert payload["mode"] == "both"
    assert check.check_tbr(fam, payload, b, run.EPSILON) == []
