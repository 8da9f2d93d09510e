"""Self-tests of the serving benchmark.

Run from the repository root (they are not part of the package's test
suite)::

    python3 -m pytest perfbench -q

The smoke tests run every workload end to end at a tiny size, traced and
untraced, and take about two minutes on a 2-core host.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.models import get_config  # noqa: E402
from workloads import MODEL, WORKLOADS, inputs_digest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
VOCAB = get_config(MODEL).vocab_size


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    workload = WORKLOADS[name]
    first = inputs_digest(workload.inputs(7, 2.0, VOCAB))
    assert inputs_digest(workload.inputs(7, 2.0, VOCAB)) == first
    assert inputs_digest(workload.inputs(8, 2.0, VOCAB)) != first


@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if w.loop == "open"])
def test_open_loop_offers_the_nominal_rate_on_every_seed(name):
    workload = WORKLOADS[name]
    for seed in (1, 2, 3):
        inputs = workload.inputs(seed, 5.0, VOCAB)
        assert len(inputs) == round(workload.rate_rps * workload.window_per_s * 5.0)
        assert inputs[-1].arrival_time == pytest.approx(workload.window_per_s * 5.0)


# Closed-loop requests take seconds each, so their smoke needs a longer
# window for at least one request to finish and be checked.
SMOKE_SECONDS = {"chat": "1", "tenants": "1",
                 "batch-rank8-int8": "4", "batch-dense-tp2": "6"}


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_emits_exactly_the_declared_metrics(name, trace, key):
    out = _run("--workload", name, "--seed", "3", "--seconds", SMOKE_SECONDS[name],
               "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    for metric in SPEC[key]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert " 0 outputs checked" not in out.stdout


def test_bare_directory_fails_without_a_result():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = _run("--workload", "chat", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert "correct" not in out.stdout
