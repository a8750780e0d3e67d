"""Time each phase of the atlas workload, as a median over warm passes.

    PYTHONPATH=src python3 scripts/atlas_layers.py --passes 10
    PYTHONPATH=src python3 scripts/atlas_layers.py --passes 3 --types A2,G2

A pass runs the jobs of the benchmark's atlas workload
(`perfbench/workloads.py`) with a clock around each phase: for every type,
with the caches cleared as a fresh process has them, the root system, the
stem, the stem checks (`verify_stem_properties`), the Chevalley basis with
`verify_special_sign_identity`, the audit (`sign_claims_hold`) and the pairs
(`check_pair` on every substem, `complement_data` on each accepted one);
then, in a job of its own, `enumerate_hc_spaces` to the atlas bound with
`check_pair` on every space.  `--types` picks the types.  One unmeasured
pass comes first.

It prints one JSON object: per phase the median over the passes of its
seconds in a pass, the median pass, each phase's share of the phases' sum,
per type the median seconds of each of its phases (`type_phase_s`, with
every phase but `enumerate`, which runs on no one type), and the machine.
No tracing wrappers run, so the phases time the library alone; the
benchmark's `--trace 1` run counts the calls under them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from stemhc import chevalley, classify, pairs, rootsystems, stem  # noqa: E402
from workloads import (  # noqa: E402
    ATLAS_ENUM_BOUND, ATLAS_TYPES, clear_caches,
)

PHASES = ("root system", "stem", "stem checks", "basis", "audit", "pairs",
          "enumerate")
TYPE_PHASES = PHASES[:-1]


def type_pass(label, clock):
    """The atlas job of one type, with clock(phase) timing each phase."""
    clear_caches()
    sh = rootsystems.parse_shape(label)
    with clock("root system"):
        rootsystems.build_cached(sh)
    with clock("stem"):
        st = stem.stem_of(sh)
    with clock("stem checks"):
        stem.verify_stem_properties(st)
    with clock("basis"):
        cb = chevalley.make_basis(sh)
        chevalley.verify_special_sign_identity(cb, st)
    with clock("audit"):
        classify.sign_claims_hold(sh)
    with clock("pairs"):
        for sub in pairs.enumerate_substems(st):
            spec = pairs.PairSpec(sh, sub.indices, 0)
            if pairs.check_pair(spec).verdict:
                pairs.complement_data(spec)


def enumerate_pass(clock):
    clear_caches()
    with clock("enumerate"):
        for space in classify.enumerate_hc_spaces(ATLAS_ENUM_BOUND):
            pairs.check_pair(space.to_pair_spec())


@contextmanager
def timed(seconds, phase):
    """Add the seconds the block takes to seconds[phase]."""
    start = perf_counter()
    yield
    seconds[phase] += perf_counter() - start


def one_pass(types):
    """Seconds per phase, summed over one pass, and per type its seconds
    per phase, summed over its jobs."""
    per_type = {}
    for label in types:
        own = per_type.setdefault(label, dict.fromkeys(TYPE_PHASES, 0.0))
        type_pass(label, partial(timed, own))
    seconds = {p: sum(own[p] for own in per_type.values())
               for p in TYPE_PHASES}
    seconds["enumerate"] = 0.0
    enumerate_pass(partial(timed, seconds))
    return seconds, per_type


def layers(types, passes):
    """The JSON object the script prints."""
    if passes < 1:
        raise ValueError("need at least one pass, got %d" % passes)
    one_pass(types)
    runs, type_runs = zip(*(one_pass(types) for _ in range(passes)))
    median = {p: statistics.median(run[p] for run in runs) for p in PHASES}
    total = sum(median.values())
    return {
        "passes": passes,
        "types": list(types),
        "phase_s": median,
        "pass_s": statistics.median(sum(run.values()) for run in runs),
        "share_pct": {p: 100.0 * s / total if total else 0.0
                      for p, s in median.items()},
        "type_phase_s": {t: {p: statistics.median(run[t][p]
                                                  for run in type_runs)
                             for p in TYPE_PHASES} for t in types},
        "machine": {"python": platform.python_version(),
                    "cpus": os.cpu_count(), "processor": platform.machine()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=10)
    parser.add_argument("--types", default=",".join(ATLAS_TYPES),
                        help="comma-separated simple types")
    args = parser.parse_args(argv)
    types = [t.strip() for t in args.types.split(",") if t.strip()]
    print(json.dumps(layers(types, args.passes), indent=1))


if __name__ == "__main__":
    main()
