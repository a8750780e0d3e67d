"""A smoke run of scripts/rotation_layers.py on two small types."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parent.parent / "scripts"
          / "rotation_layers.py")


def test_rotation_layers_on_two_small_types():
    out = subprocess.run([sys.executable, str(SCRIPT), "--passes", "2",
                          "--types", "A2,G2"],
                         capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    layers = ["root_rotation", "verify_rotation", "verify_rotation_spans",
              "rotation_product"]
    assert got["passes"] == 2 and got["types"] == ["A2", "G2"]
    assert got["seed"] == 1
    assert list(got["layer_s"]) == layers == list(got["share_pct"])
    assert all(s > 0 for s in got["layer_s"].values())
    assert abs(sum(got["share_pct"].values()) - 100) < 1e-6
    assert got["pass_s"] > 0
    assert list(got["type_layer_s"]) == ["A2", "G2"]
    for seconds in got["type_layer_s"].values():
        assert list(seconds) == layers
        assert all(s > 0 for s in seconds.values())
    # one table per stem root and one for the stem product, which for the
    # single stem root of A2 is that root's own table
    assert got["tables"] == {"A2": 1, "G2": 3}
    # per stem root the grades of its table, the bracket and conjugation
    # proof and the image items, and one commutation proof per pair
    assert got["proofs"] == {"A2": 3, "G2": 7}
    assert got["machine"]["cpus"] >= 1
