"""Time each rotation layer per type, as a median over warm passes.

    PYTHONPATH=src python3 scripts/rotation_layers.py --passes 10
    PYTHONPATH=src python3 scripts/rotation_layers.py --passes 3 --types A2,G2

A pass runs, for every type, the calls of the benchmark's rotations
workload (`perfbench/workloads.py`) with a clock around each layer:
`root_rotation` on every stem root, `verify_rotation` on every stem root,
`verify_rotation_spans` once, and `rotation_product` alone, on the stem at
the phases that the spans check uses.  The phases are drawn from `--seed`
as the workload draws them, type by type in the order of `--types`.  The
bases stay built across passes, as in the workload, and one unmeasured pass
comes first.

It prints one JSON object: per layer the median over the passes of its
seconds in a pass, the median pass, each layer's share of the layers' sum,
per type the median seconds of each layer (`type_layer_s`), the number
of rotation tables its basis holds after the passes (`tables`) and the
number of phase-one proofs it keeps (`proofs`), and the machine.  No tracing wrappers run, so the layers time the library alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from stemhc import chevalley, hcstruct, rootsystems, stem  # noqa: E402
from workloads import ROTATION_TYPES, unit_phase  # noqa: E402

LAYERS = ("root_rotation", "verify_rotation", "verify_rotation_spans",
          "rotation_product")


def type_calls(label, rng):
    """The basis of one type, and per layer its calls as a function of no
    argument."""
    sh = rootsystems.parse_shape(label)
    cb, st = chevalley.make_basis(sh), stem.stem_of(sh)
    phases = {g: unit_phase(rng) for g in st.elements}
    return cb, {
        "root_rotation": lambda: [hcstruct.root_rotation(cb, g, phases[g])
                                  for g in st.elements],
        "verify_rotation": lambda: [
            hcstruct.verify_rotation(cb, st, g, phases[g])
            for g in st.elements],
        "verify_rotation_spans":
            lambda: hcstruct.verify_rotation_spans(cb, st, phases),
        "rotation_product":
            lambda: hcstruct.rotation_product(cb, st.elements, phases),
    }


def one_pass(calls):
    """Per type, the seconds of each layer in one pass."""
    out = {}
    for label, layer_calls in calls.items():
        own = out[label] = {}
        for layer in LAYERS:
            start = perf_counter()
            layer_calls[layer]()
            own[layer] = perf_counter() - start
    return out


def layers(types, passes, seed=1):
    """The JSON object the script prints."""
    if passes < 1:
        raise ValueError("need at least one pass, got %d" % passes)
    rng = random.Random(seed)
    bases, calls = {}, {}
    for label in types:
        bases[label], calls[label] = type_calls(label, rng)
    one_pass(calls)
    runs = [one_pass(calls) for _ in range(passes)]
    type_layer = {t: {layer: statistics.median(run[t][layer] for run in runs)
                      for layer in LAYERS} for t in types}
    median = {layer: statistics.median(sum(run[t][layer] for t in types)
                                       for run in runs)
              for layer in LAYERS}
    total = sum(median.values())
    return {
        "passes": passes,
        "seed": seed,
        "types": list(types),
        "layer_s": median,
        "pass_s": statistics.median(
            sum(sum(own.values()) for own in run.values()) for run in runs),
        "share_pct": {layer: 100.0 * s / total if total else 0.0
                      for layer, s in median.items()},
        "type_layer_s": type_layer,
        "tables": {t: len(bases[t].rotation_tables) for t in types},
        "proofs": {t: len(bases[t].rotation_proofs) for t in types},
        "machine": {"python": platform.python_version(),
                    "cpus": os.cpu_count(), "processor": platform.machine()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--types", default=",".join(ROTATION_TYPES),
                        help="comma-separated types")
    args = parser.parse_args(argv)
    types = list(dict.fromkeys(t.strip() for t in args.types.split(",")
                               if t.strip()))
    print(json.dumps(layers(types, args.passes, args.seed), indent=1))


if __name__ == "__main__":
    main()
