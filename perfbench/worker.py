"""One workload in one single-threaded process: set up, run timed passes
over the job list, read peak memory, check the outputs, print one JSON line.

    python3 perfbench/worker.py --workload atlas --seed 1 --seconds 20 \
        --trace 0 [--setup-only]

`perfbench/run.py` starts this script; see the README for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import refkernel  # noqa: E402  (does not import stemhc)
import tracing  # noqa: E402

# Kernel runs averaged on each side of a job.  One run before and one after
# tracks the drift of the virtual CPU; four on each side also average out
# the noise of single kernel runs (README, "wall_ref").
KERNEL_WINDOW = 4


class Raised:
    """The output of a job that raised: equal to another of the same kind."""

    def __init__(self, exc):
        self.text = "%s: %s" % (type(exc).__name__, exc)

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def timed_kernel():
    gc.collect()
    t = perf_counter()
    checksum = refkernel.run_kernel()
    elapsed = perf_counter() - t
    if checksum != refkernel.CHECKSUM:
        raise RuntimeError("reference kernel gave %s" % checksum)
    return elapsed


def run_pass(jobs, first, tracer=None, spans=True):
    """Time every job once, between two reference kernels (each after a
    `gc.collect()`).  The first pass keeps its outputs in `first` for the
    checks; a later pass counts a job as failed when its output differs.
    Returns (job seconds, kernel seconds, indices of the jobs whose output
    differs), with one kernel time more than job times."""
    job_s, kernel_s, differs = [], [timed_kernel()], []
    for i, job in enumerate(jobs):
        with tracer.installed(spans) if tracer else nullcontext():
            t = perf_counter()
            try:
                raw = job.run()
            except Exception as exc:  # counted as a failed operation
                raw = exc
            job_s.append(perf_counter() - t)
        if isinstance(raw, Exception):
            if len(first) == i:
                traceback.print_exception(raw, file=sys.stderr)
            out = Raised(raw)
        else:
            out = job.summarize(raw)
        del raw
        if len(first) == i:
            first.append(out)
        elif out != first[i]:
            differs.append(i)
            print("job %s: output differs from the first pass" % job.label,
                  file=sys.stderr)
        kernel_s.append(timed_kernel())
    return job_s, kernel_s, differs


def job_refs(job_s, kernel_s):
    """Each job's time in kernel units: divided by the mean of the kernel
    runs nearest to it, up to KERNEL_WINDOW before and as many after."""
    w = KERNEL_WINDOW
    return [t / statistics.fmean(kernel_s[max(0, i + 1 - w):i + 1 + w])
            for i, t in enumerate(job_s)]


def wall_ref(passes):
    """One pass over the job list in kernel units: per job, the median over
    passes of its kernel-relative time, summed over the jobs."""
    per_pass = [job_refs(j, k) for j, k in passes]
    return sum(statistics.median(col) for col in zip(*per_pass))


def check_outputs(jobs, first):
    """Per job: the problems its checks found in the first pass's output."""
    problems = []
    for job, out in zip(jobs, first):
        if isinstance(out, Raised):
            problems.append(["%s raised %s" % (job.label, out.text)])
            continue
        try:
            problems.append(job.check(out))
        except Exception as exc:  # a check that cannot read the output
            problems.append(["%s: check raised %s: %s"
                             % (job.label, type(exc).__name__, exc)])
    return problems


def measure(jobs, seconds, trace):
    """Passes over `jobs` until `seconds` have gone by, in whole passes.

    Untraced: every pass is timed.  Traced: each round is an untraced pass,
    a pass with span wrappers and a pass with count wrappers."""
    first = []
    passes, traced, counted = [], [], []
    differs = Counter()
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        job_s, kernel_s, bad = run_pass(jobs, first)
        passes.append((job_s, kernel_s))
        differs.update(bad)
        if trace:
            tracer = tracing.Tracer()
            job_s, kernel_s, bad = run_pass(jobs, first, tracer, spans=True)
            traced.append((job_s, kernel_s, tracer))
            differs.update(bad)
            counter = tracing.Tracer()
            _j, _k, bad = run_pass(jobs, first, counter, spans=False)
            counted.append(counter)
            differs.update(bad)
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = check_outputs(jobs, first)
    n_passes = rounds * (3 if trace else 1)
    # a job whose first output fails its checks fails in every pass; any
    # other fails in each pass whose output differs from the first
    failed = sum(n_passes if p else differs[i] for i, p in enumerate(problems))
    return {
        "passes": passes, "traced": traced, "counted": counted,
        "attempted": n_passes * len(jobs),
        "failed": failed,
        "problems": [p for ps in problems for p in ps],
        "peak_rss_mb": peak_rss_mb,
    }


def untraced_result(m):
    refs = [sum(job_refs(j, k)) for j, k in m["passes"]]
    return {
        "wall_ref": {"value": wall_ref(m["passes"]), "unit": "ref"},
        "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
    }, {
        "passes": len(refs),
        "pass_ref": refs,
        "pass_wall_s": [sum(j) for j, _k in m["passes"]],
        "job_s": [j for j, _k in m["passes"]],
        "pass_kernel_s": [k for _j, k in m["passes"]],
        "kernel_s": statistics.median(
            [t for _j, k in m["passes"] for t in k]),
    }


def traced_result(m):
    """Per-layer metrics per pass: counts summed over the traced passes and
    divided by their number (every pass makes the same calls), mean self
    times, and the overhead of the span pass over the untraced one."""
    rounds = len(m["traced"])
    calls, checks, self_s = Counter(), Counter(), Counter()
    for _j, _k, tracer in m["traced"]:
        calls.update(tracer.calls)
        checks.update(tracer.checks)
        self_s.update(tracer.self_s)
    for counter in m["counted"]:
        calls.update(counter.counted())
    untraced = wall_ref(m["passes"])
    spanned = wall_ref([(j, k) for j, k, _t in m["traced"]])
    values = {}
    for name, unit in tracing.PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name == tracing.OVERHEAD:
            value = 100.0 * (spanned / untraced - 1.0)
        elif kind == "calls":
            value = calls[base] // rounds
        elif kind == "checks":
            value = checks[base] // rounds
        else:
            value = self_s[base] / rounds
        values[name] = {"value": value, "unit": unit}
    return values, {"rounds": rounds}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import stemhc
    import workloads
    if not Path(stemhc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit("stemhc was not imported from %s" % SRC)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("unknown workload %r" % args.workload)
    jobs = workloads.make_jobs(args.workload, args.seed)
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    m = measure(jobs, args.seconds, args.trace)
    metrics, info = (traced_result if args.trace else untraced_result)(m)
    info.update(setup_s=setup_s, jobs=len(jobs), problems=m["problems"][:20])
    if args.trace and args.spans_out:
        spans = m["traced"][0][2].spans
        args.spans_out.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": spans}))
    print(json.dumps({"correct": True, "attempted": m["attempted"],
                      "failed": m["failed"], "metrics": metrics,
                      "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
