"""A smoke run of scripts/atlas_layers.py on two small types."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "atlas_layers.py"


def test_atlas_layers_on_two_small_types():
    out = subprocess.run([sys.executable, str(SCRIPT), "--passes", "2",
                          "--types", "A2,G2"],
                         capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    phases = ["root system", "stem", "stem checks", "basis", "audit",
              "pairs", "enumerate"]
    assert got["passes"] == 2 and got["types"] == ["A2", "G2"]
    assert list(got["phase_s"]) == phases == list(got["share_pct"])
    assert all(s > 0 for s in got["phase_s"].values())
    assert abs(sum(got["share_pct"].values()) - 100) < 1e-6
    assert got["pass_s"] > 0
    # per type, every phase but enumerate, which runs on no one type
    assert list(got["type_phase_s"]) == ["A2", "G2"]
    for seconds in got["type_phase_s"].values():
        assert list(seconds) == phases[:-1]
        assert all(s > 0 for s in seconds.values())
    assert got["machine"]["cpus"] >= 1
