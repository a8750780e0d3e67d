"""The benchmark's jobs read library names directly (`i_matrix`, `cols`,
`AlgebraElement.h`, ...); running its fast jobs through their own checks
makes a rename or a deletion fail here, not only in a benchmark run."""

import ast
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def workloads_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_labels():
    """The SMALL job labels of perfbench/test_perfbench.py."""
    tree = ast.parse((PERFBENCH / "test_perfbench.py").read_text())
    node, = [n for n in tree.body if isinstance(n, ast.Assign)
             and [getattr(t, "id", None) for t in n.targets] == ["SMALL"]]
    return ast.literal_eval(node.value)


SMALL = small_labels()


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_small_benchmark_jobs_pass_their_checks(workload):
    labels = SMALL[workload]
    jobs = [j for j in workloads_module().make_jobs(workload, 7)
            if j.label in labels]
    assert sorted(j.label for j in jobs) == sorted(labels)
    for job in jobs:
        assert job.check(job.summarize(job.run())) == [], job.label
