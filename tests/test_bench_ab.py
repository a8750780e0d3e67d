"""The summary of scripts/bench_ab.py on fabricated result lines; no run of
the benchmark is started."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)

END_TO_END = [{"name": "wall_ref", "better": "lower", "bound": 0.15},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
              {"name": "checks_per_s", "better": "higher", "bound": 0.2}]


def line(wall, rss, rate, failed=0, attempted=40):
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {"wall_ref": {"value": wall, "unit": "ref"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"},
                        "checks_per_s": {"value": rate, "unit": "1/s"}}}


def test_summary_of_fabricated_pairs():
    parent = [line(w, 20.0, 100.0) for w in (60.0, 62.0, 58.0, 61.0, 59.0)]
    change = [line(50.0, 22.5, 90.0), line(49.0, 22.5, 90.0),
              line(59.0, 22.5, 90.0), line(48.0, 22.5, 90.0),
              line(51.0, 22.5, 90.0, failed=1)]
    out = bench_ab.summarize(list(zip(parent, change)), END_TO_END)
    assert out["pairs"] == 5
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["attempted"] == {"parent": 200, "change": 200}
    assert out["correct"] == {"parent": True, "change": False}

    wall = out["metrics"]["wall_ref"]
    assert wall["parent"] == {"median": 60.0, "q1": 59.0, "q3": 61.0,
                              "min": 58.0, "max": 62.0,
                              "runs": [60.0, 62.0, 58.0, 61.0, 59.0]}
    assert wall["change"]["median"] == 50.0
    assert wall["change"]["runs"] == [50.0, 49.0, 59.0, 48.0, 51.0]
    # the third pair, 58 -> 59, is a loss
    assert (wall["change_wins"], wall["change_losses"]) == (4, 1)
    assert wall["median_change_pct"] == pytest.approx(-100 / 6)
    assert wall["bound_pct"] == pytest.approx(15.0)
    assert wall["within_bound"]
    assert wall["parent_iqr"] == 2.0

    rss = out["metrics"]["peak_rss_mb"]
    assert (rss["change_wins"], rss["change_losses"]) == (0, 5)
    assert rss["median_change_pct"] == pytest.approx(12.5)
    assert not rss["within_bound"]

    # higher is better: a 10% fall is a loss in every pair, inside 20%
    rate = out["metrics"]["checks_per_s"]
    assert (rate["change_wins"], rate["change_losses"]) == (0, 5)
    assert rate["median_change_pct"] == pytest.approx(-10.0)
    assert rate["within_bound"]


def test_summary_needs_two_pairs():
    with pytest.raises(ValueError):
        bench_ab.summarize([(line(1, 1, 1), line(1, 1, 1))], END_TO_END)


def test_odd_seeds_run_the_parent_first(monkeypatch, tmp_path, capsys):
    """Seeds 1-10, each run as long as the change's BENCHMARK.json says."""
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 5, "end_to_end": [{"name": "wall_ref", '
        '"better": "lower", "bound": 0.15}]}')
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        return line(60.0 if checkout.name == "old" else 50.0, 20.0, 1.0)

    monkeypatch.setattr(bench_ab, "run_once", fake_run)
    parent, change = tmp_path / "old", tmp_path
    bench_ab.main(["--parent", str(parent), "--change", str(change),
                   "--workload", "rotations"])
    new = tmp_path.name
    assert [c[0] for c in calls] == ["old", new, new, "old"] * 5
    assert [c[2] for c in calls] == [s for s in range(1, 11) for _ in "ab"]
    assert {c[1:] for c in calls} == {("rotations", s, 5)
                                      for s in range(1, 11)}
    out = capsys.readouterr().out
    assert '"change_wins": 10' in out
