"""Smoke runs of the stem-check and fresh-phase rotation sections of
scripts/verifier_reports.py on two small types, and the digests of its
sum-table and Chevalley-data sections on the same two, pinned."""

import ast
import importlib.util
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parent.parent / "scripts"
          / "verifier_reports.py")


def load_script():
    spec = importlib.util.spec_from_file_location("verifier_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stem_check_section_on_two_small_types(capsys):
    vr = load_script()
    vr.show_stem_checks(("A3", "G2"), ("A3", "G2"))
    lines = capsys.readouterr().out.splitlines()
    labels = {}
    for line in lines:
        label, _, item = line.partition(" | ")
        labels.setdefault(label, []).append(ast.literal_eval(item))
    # one line per item, the same ten items under every label
    names = [item[0] for item in labels["A3 stem checks"]]
    assert len(names) == len(set(names)) == 10
    assert all([item[0] for item in items] == names
               for items in labels.values())
    clean = ("A3 stem checks", "G2 stem checks")
    assert all(ok for label in clean for _, _, ok, _, _ in labels[label])
    # A3 and G2 have two stem roots each, and the higher one has wings:
    # three corruptions for the pair and one dropped wing, per type
    corrupted = [label for label in labels if label not in clean]
    assert len(corrupted) == 8
    assert all(not all(ok for _, _, ok, _, _ in labels[label])
               for label in corrupted)


def test_fresh_phase_rotation_section_prints_cold_and_warm_alike(capsys):
    vr = load_script()
    vr.show_fresh_phase_rotations(("A3", "G2"))
    lines = capsys.readouterr().out.splitlines()
    cold = [line for line in lines if ", cold |" in line]
    warm = [line for line in lines if ", warm |" in line]
    assert cold and len(cold) + len(warm) == len(lines)
    assert [line.replace(", cold |", ", warm |") for line in cold] == warm
    # eight items per call: two stem roots per type, three phases
    assert len(cold) == 2 * 2 * 3 * 8
    assert all(ast.literal_eval(line.partition(" | ")[2])[2]
               for line in cold)


def test_sum_table_and_chevalley_digests_on_two_small_types(capsys,
                                                            monkeypatch):
    """The root-sum and Chevalley-data digests of A3 and G2, pinned: a
    change to how root addition or the constants are stored must print the
    same digests."""
    vr = load_script()
    monkeypatch.setattr(vr, "ATLAS_TYPES", ("A3", "G2"))
    vr.show_sum_tables()
    vr.show_chevalley_data()
    assert capsys.readouterr().out.splitlines() == [
        "A3 sum tables | 74b76dd99236adbc3b20ae12fbfff4f1"
        "10b9da3cb35afa5c10309315cef4cfe0",
        "G2 sum tables | 0c22c8cb9b76f3d7a2ad525adf6ad900"
        "9d459f3feaa50ead40e1bef5b184f7a4",
        "A3 chevalley data | 05015ba8d4ec5e674bc0f80e2a33d637"
        "f761165578cc25979d1a8f2aaf64769b",
        "G2 chevalley data | 7a225a58690bbf87e10124cb41443e45"
        "44bde292c9af25c90147871813f75890",
    ]


def test_fresh_phase_section_passes_and_catches_the_wing_swap(capsys,
                                                             monkeypatch):
    """`verify_all` passes on every pair at every fresh phase, and fails on
    each wing-swap mutant, whose J is the pair's own at the phase one."""
    vr = load_script()
    monkeypatch.setattr(vr, "SELFTEST_BUILDS", (("A2", (), 0),
                                                ("A3", (2,), 0)))
    monkeypatch.setattr(vr, "TORUS_BUILDS", (("c^1 x A1", (), 0),))
    vr.show_fresh_phases()
    labels = {}
    for line in capsys.readouterr().out.splitlines():
        label, _, item = line.partition(" | ")
        labels.setdefault(label, []).append(ast.literal_eval(item))
    mutants = [label for label in labels if "wing-swap mutant" in label]
    # three pairs and two pairs at three phases
    assert len(labels) == 9 + 6 and len(mutants) == 6
    for label, items in labels.items():
        assert all(item[2] for item in items) == (label not in mutants)
