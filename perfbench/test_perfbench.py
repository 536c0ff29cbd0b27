"""Self-test of the benchmark at tiny sizes: metric names and units, the
failure accounting of perturbed outputs, and the refusal to run without
the package sources."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "basis_write": dict(h_frac=0.1, modes=10),
    "fine_spectra": dict(h=0.2, dbs_modes=10, dtn_modes=8, dirichlet_modes=5),
    "basis_queries": dict(h_frac=0.1, modes=10, extend_modes=6, gram_points=20, kernel_pairs=5),
    "verify_polygon": dict(h=0.1, modes=10),
}


@pytest.fixture(autouse=True)
def _tiny_harness(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK", tmp_path)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)


def tiny_run(name, trace):
    result = harness.run(name, 3, 0.0, trace, time.perf_counter(), params=TINY[name])
    return result, json.loads(harness.final_line(result))


def test_workload_names_agree():
    import run

    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(TINY) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    _, line = tiny_run(name, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in line["metrics"].items()
    }
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    assert all(v >= 0 for k, v in values.items() if k != "trace.overhead_s")
    if not trace:
        # peak_rss_mb may read 0 at this size: the operation fits in pages already resident.
        assert all(values[k] > 0 for k in ("op_s", "setup_s", "output_mb"))
    else:
        assert values["trace.coverage"] > 0.9


def _scale_q(op):
    def perturbed(self, region):
        result = op(self, region)
        return dict(result, q=[1.05 * q for q in result["q"]])

    return perturbed


def _corrupt_basis(op):
    def perturbed(self, region):
        result = op(self, region)
        data = json.loads(Path(self.basis_path).read_text())
        data["q"] = [1.05 * q for q in data["q"]]
        Path(self.basis_path).write_text(json.dumps(data))
        return result

    return perturbed


def _write_nothing_after_warmup(op):
    calls = []

    def perturbed(self, region):
        calls.append(None)
        return op(self, region) if len(calls) == 1 else {"code": 0, "text": ""}

    return perturbed


@pytest.mark.parametrize(
    "name, perturb",
    [
        ("fine_spectra", _scale_q),
        ("basis_write", _corrupt_basis),
        ("basis_write", _write_nothing_after_warmup),
    ],
)
def test_perturbed_output_counts_as_failed(name, perturb, monkeypatch):
    cls = workloads.WORKLOADS[name]
    monkeypatch.setattr(cls, "op", perturb(cls.op))
    result, line = tiny_run(name, False)
    assert not line["correct"]
    # The perturbation lives in this process; the memory pass runs in its own.
    timed = [o for o in result["ops"] if o["kind"] == "timed"]
    assert timed and not any(o["ok"] for o in timed)
    assert line["failed"] == len(timed)


def test_predictions_cover_every_layer_metric():
    predictions = json.loads((HERE / "predictions.json").read_text())
    named = {m for row in predictions["layers"] for m in row["metrics"]}
    named |= {k for k in predictions["tracing"] if k.startswith("trace.")}
    assert named == {m["name"] for m in BENCH["per_layer"]}
    assert set(spans.LAYERS) | set(spans.COUNTS) <= named
    for row in predictions["layers"]:
        assert set(row["on"]) | set(row["flat_on"]) <= set(workloads.WORKLOADS)
    assert set(predictions["end_to_end"]) - {"failed_frac"} == {
        m["name"] for m in BENCH["end_to_end"]
    }


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "basis_write", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
