"""The stemhc benchmark: one workload per call, each in its own process.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With `--trace 0` the last line of standard
output is a JSON object with `correct`, `attempted`, `failed` and the
end-to-end metrics `setup_s`, `wall_ref` and `peak_rss_mb`; with `--trace 1`
it carries the per-layer metrics instead.  The line before it carries the raw
figures (pass wall seconds, kernel seconds, set-up samples).  Both are also
written to `perfbench/out/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("atlas", "hc-verify", "rotations")
SETUP_SAMPLES = 2    # set-ups before and again after the timed run; with
                     # the timed run's own, setup_s is the median of 5
CHILD_TIMEOUT_S = 170

# one thread per process, also for numpy in the checks
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def child(args, extra=(), timeout=CHILD_TIMEOUT_S):
    """Run worker.py to its end and return its last JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    # fixed string hashing, so no set order (nor any traced count built on
    # one) can differ from one process to the next
    env = dict(os.environ, **SINGLE_THREAD, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise SystemExit("worker exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_only(args):
    return child(args, ["--setup-only"], timeout=60)["setup_s"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stemhc" / "__init__.py").is_file():
        raise SystemExit("no stemhc sources under %s" % (ROOT / "src"))

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        result = child(args, ["--spans-out",
                              str(OUT / ("spans-%s.json" % stem))])
        info = result.pop("info")
    else:
        setups = [setup_only(args) for _ in range(SETUP_SAMPLES)]
        result = child(args)
        info = result.pop("info")
        setups += [info["setup_s"]]
        setups += [setup_only(args) for _ in range(SETUP_SAMPLES)]
        info["setup_samples_s"] = setups
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **result["metrics"]}
    info.update(workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    (OUT / (stem + ".json")).write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
