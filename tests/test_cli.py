"""The command line contract: outputs, exit codes, JSON round trips."""

import dataclasses
import json

from click.testing import CliRunner

from stemhc.cli import main


def run(*argv):
    return CliRunner().invoke(main, list(argv))


def roundtrip(out):
    return json.dumps(json.loads(out), indent=2, sort_keys=True) == out.strip()


def test_stem_text_and_json():
    res = run("stem", "--type", "E6")
    assert res.exit_code == 0
    assert "4 roots, srank 8" in res.output
    assert "g1 < g2" in res.output and "g3 < g4" in res.output
    res = run("stem", "--type", "E6", "--json")
    assert res.exit_code == 0
    assert roundtrip(res.output)
    rec = json.loads(res.output)
    assert rec["size"] == 4 and rec["srank"] == 8
    assert rec["hasse"] == [[1, 2], [2, 3], [3, 4]]
    assert rec["roots"][0]["coords"] == [1, 2, 2, 3, 2, 1]


def test_stem_incomparable_pair():
    rec = json.loads(run("stem", "--type", "B3", "--json").output)
    assert rec["size"] == 3
    assert [2, 3] not in rec["hasse"] and [3, 2] not in rec["hasse"]


def test_stem_dot_export(tmp_path):
    target = tmp_path / "stem.dot"
    res = run("stem", "--type", "A4", "--dot", str(target))
    assert res.exit_code == 0
    text = target.read_text()
    assert text.startswith("digraph stem {")
    assert "g1 -> g2;" in text


def test_stem_rejects_bad_shape():
    res = run("stem", "--type", "Z9")
    assert res.exit_code == 2


def test_pair_rejects_signed_or_non_ascii_numbers():
    for g in ["c^-1 x c^2 x A1", "c^\u0662 x A1", "A\u0663"]:
        res = run("pair", "--g", g)
        assert res.exit_code == 2, g
        assert "bad" in res.output


def test_audit_text_json_and_exit():
    res = run("audit", "--type", "B3")
    assert res.exit_code == 0
    assert "signs: ok" in res.output
    res = run("audit", "--type", "A4", "--json")
    assert res.exit_code == 0
    assert roundtrip(res.output)
    rec = json.loads(res.output)
    assert rec["ok"] is True
    assert all(row["deficiency"] <= 0 for row in rec["rows"])


def test_pair_accept_and_reject():
    res = run("pair", "--g", "A3", "--substem", "2")
    assert res.exit_code == 0
    assert "deficiency 0" in res.output and "accepted" in res.output
    res = run("pair", "--g", "B3", "--substem", "2")
    assert res.exit_code == 1
    assert "rejected" in res.output
    res = run("pair", "--g", "A3", "--substem", "2", "--json")
    rec = json.loads(res.output)
    assert rec["verdict"] is True
    assert rec["complement"]["dim_p"] == 12
    assert roundtrip(res.output)


def test_pair_usage_errors():
    assert run("pair", "--g", "A3", "--substem", "x,y").exit_code == 2
    assert run("pair", "--g", "A2", "--ok-dim", "5").exit_code == 2
    assert run("pair", "--g", "A3", "--substem", "9").exit_code == 2


def test_build_accepted_pair():
    res = run("build", "--g", "A3", "--substem", "2", "--rho", "i")
    assert res.exit_code == 0
    assert "verification: ok" in res.output
    res = run("build", "--g", "A2", "--verify", "fast", "--json")
    assert res.exit_code == 0
    assert roundtrip(res.output)
    rec = json.loads(res.output)
    assert rec["dim_p"] == 8
    assert rec["verification"]["ok"] is True
    names = [it["name"] for it in rec["verification"]["items"]]
    assert not any("eigenspace of the second structure" in n for n in names)


def test_build_phases_per_root():
    res = run("build", "--g", "A2 x A2", "--rho", "i,1/2sqrt2+1/2isqrt2",
              "--verify", "fast", "--json")
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert sorted(rec["phases"].values()) == ["1/2√2 + 1/2i√2", "i"]


def test_build_rejections():
    assert run("build", "--g", "B3", "--substem", "2").exit_code == 1
    assert run("build", "--g", "A2", "--rho", "2").exit_code == 2
    assert run("build", "--g", "A2", "--rho", "i,i").exit_code == 2


def test_unparsable_phase_and_non_simple_audit_are_usage_errors():
    res = run("build", "--g", "A2", "--rho", "one")
    assert res.exit_code == 2
    assert "bad scalar term 'one'" in res.output
    res = run("build", "--g", "A2", "--rho", "1/0i")
    assert res.exit_code == 2
    assert "Error: bad scalar term '1/0i' in '1/0i'" in res.output
    # a unit phase spelled with non-ASCII digits, or with a final newline
    for rho in ("\u0661", "\uff11", "1\n", "i,1\n"):
        res = run("build", "--g", "A2 x A2", "--rho", rho)
        assert res.exit_code == 2, repr(rho)
        assert "bad scalar term" in res.output, repr(rho)
    res = run("audit", "--type", "A2 x A2")
    assert res.exit_code == 2
    assert "one simple type at a time" in res.output


def test_audit_exits_1_on_a_sign_violation(monkeypatch):
    # every deficiency one higher: B3 rows must all be negative, and the
    # one at -1 no longer is
    from stemhc import classify

    audit_type = classify.audit_type
    monkeypatch.setattr(classify, "audit_type", lambda shape: [
        dataclasses.replace(r, deficiency=r.deficiency + 1)
        for r in audit_type(shape)])
    res = run("audit", "--type", "B3")
    assert res.exit_code == 1
    assert "signs: FAIL" in res.output
    assert "violation: B3 (2, 3): deficiency 0, expected < 0" in res.output


def test_build_exits_1_when_a_check_fails(monkeypatch):
    # -J is still a complex structure anticommuting with I, but it sends
    # X_gamma to -W
    from stemhc import hcstruct

    build_j = hcstruct.build_J
    monkeypatch.setattr(hcstruct, "build_J", lambda pb: [
        {i: -v for i, v in col.items()} for col in build_j(pb)])
    res = run("build", "--g", "A2", "--verify", "fast")
    assert res.exit_code == 1
    assert "verification: FAIL" in res.output


def test_selftest_exits_1_when_a_type_fails(monkeypatch):
    from stemhc import cli

    real = cli.verify_special_sign_identity

    def failing_on_g2(cb, st):
        rep = real(cb, st)
        if str(st.rs.shape) == "G2":
            rep.record("forged failure", 1, ["forged"])
        return rep

    monkeypatch.setattr(cli, "verify_special_sign_identity", failing_on_g2)
    res = run("selftest", "--max-rank", "1")
    assert res.exit_code == 1
    lines = res.output.splitlines()
    assert "G2   FAIL" in lines and "A1   ok" in lines
    assert "selftest ok" not in res.output


def test_pair_and_build_check_the_pair_once(monkeypatch):
    # the command validates the pair and reuses that report; the library
    # calls behind it (complement_data, build_structure) check on their own
    from stemhc import cli

    calls = []
    check_pair = cli.check_pair

    def counted(spec):
        calls.append(spec)
        return check_pair(spec)

    monkeypatch.setattr(cli, "check_pair", counted)
    for argv in (("pair", "--g", "A3", "--substem", "2"),
                 ("build", "--g", "A2", "--verify", "fast"),
                 ("build", "--g", "B3", "--substem", "2")):
        calls.clear()
        run(*argv)
        assert len(calls) == 1, argv


def test_enumerate_small_bounds():
    res = run("enumerate", "--max-dim", "12", "--json")
    assert res.exit_code == 0
    assert roundtrip(res.output)
    rec = json.loads(res.output)
    assert rec["count"] == 2
    assert [s["space"] for s in rec["spaces"]] == ["SU(3)", "SU(4)/SU(2)"]
    res = run("enumerate", "--max-dim", "3", "--json")
    assert json.loads(res.output)["count"] == 0
    assert res.exit_code == 0


def test_enumerate_text_lists_dimensions():
    res = run("enumerate", "--max-dim", "16")
    assert res.exit_code == 0
    assert "SU(3) x SU(3)" in res.output
    assert "SU(5)/SU(3)" in res.output


def test_selftest_small_rank():
    res = run("selftest", "--max-rank", "2")
    assert res.exit_code == 0
    assert "selftest ok" in res.output
    assert "A1" in res.output and "G2" in res.output


def test_help_and_unknown_command():
    assert run("--help").exit_code == 0
    assert run("frobnicate").exit_code == 2


def test_build_is_the_same_under_optimize():
    """`python -O` strips asserts; the construction must not depend on them."""
    import os
    import subprocess
    import sys

    import stemhc

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(stemhc.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["-m", "stemhc", "build", "--g", "A3", "--substem", "2",
            "--rho", "i", "--json"]
    plain = subprocess.run([sys.executable] + argv, env=env,
                           capture_output=True, text=True, check=True)
    optimized = subprocess.run([sys.executable, "-O"] + argv, env=env,
                               capture_output=True, text=True, check=True)
    assert json.loads(plain.stdout)["verification"]["ok"]
    assert optimized.stdout == plain.stdout
