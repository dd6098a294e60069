"""Smoke test of the benchmark itself (``python3 -m pytest perf -q``).

``perf`` is not in the project's ``testpaths``, so tier-1 does not pay for
this.  Every workload runs once untraced and once traced at a fiftieth of
its size; the test checks the contract between ``run.py`` and
``BENCHMARK.json``, not any timing.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3"]
        + ["--seconds", "0.2", "--scale", "0.02", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 9) <= 3420, "measured seconds plus set-up exceed the cap"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_exactly_the_declared_metrics(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_leaves_no_scratch_behind():
    run(WORKLOADS[0], 0)
    assert not (ROOT / ".perf_tmp").exists() or not any((ROOT / ".perf_tmp").iterdir())
