"""Fast tests of the benchmark itself: its output form, that a wrong answer
is counted as a failed operation, and that traced counts repeat.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from stemhc.scalars import ONE  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# a few fast jobs of each workload
SMALL = {
    "atlas": ("A3", "B3", "G2", "enumerate32"),
    "hc-verify": ("A2 []",),
    "rotations": ("G2 0:(3,2)", "G2 0:(1,0)", "G2 spans"),
}


def small_jobs(workload, seed=7):
    jobs = [j for j in workloads.make_jobs(workload, seed)
            if j.label in SMALL[workload]]
    assert len(jobs) == len(SMALL[workload])
    return jobs


def assert_form(result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in metrics}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_run_prints_the_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "atlas",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert_form(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    m = worker.measure(small_jobs("hc-verify"), 0, trace=1)
    values, _info = worker.traced_result(m)
    result = {"correct": True, "attempted": m["attempted"],
              "failed": m["failed"], "metrics": values}
    assert_form(result, SPEC["per_layer"])
    assert [(x["name"], x["unit"]) for x in SPEC["per_layer"]] == \
        tracing.PER_LAYER
    assert values["chevalley.bracket.calls"]["value"] > 0
    assert values["hcstruct.verify_integrability.checks"]["value"] > 0


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "atlas",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def drop_stem_root(out):
    return dict(out, stem=out["stem"][1:])


def flip_j_entry(out):
    j = [list(row) for row in out["J"]]
    r, c = next((r, c) for r, row in enumerate(j)
                for c, v in enumerate(row) if v)
    j[r][c] = -j[r][c]
    return dict(out, J=j)


def perturb_rotation_column(out):
    cols = [list(col) for col in out["cols"]]
    cols[0][0] = cols[0][0] + ONE
    return dict(out, cols=cols)


@pytest.mark.parametrize("workload, label, corrupt", [
    ("atlas", "A3", drop_stem_root),
    ("hc-verify", "A2 []", flip_j_entry),
    ("rotations", "G2 0:(3,2)", perturb_rotation_column),
])
def test_a_corrupted_result_is_a_failed_operation(workload, label, corrupt):
    job, = [j for j in small_jobs(workload) if j.label == label]
    assert job.check(job.summarize(job.run())) == []
    bad = job._replace(summarize=lambda raw: corrupt(job.summarize(raw)))
    m = worker.measure([job, bad], 0, trace=0)
    assert m["attempted"] == 2 and m["failed"] == 1
    assert m["problems"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    def counts():
        m = worker.measure(small_jobs(workload), 0, trace=1)
        values, _info = worker.traced_result(m)
        return {name: v["value"] for name, v in values.items()
                if name.endswith((".calls", ".checks"))}

    first = counts()
    assert any(first.values())
    assert counts() == first
