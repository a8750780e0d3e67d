"""Command line front door: stems, sign audits, pair checks, structure
builds with full verification, and the coset space enumeration."""

import json
import sys

import click

from .chevalley import make_basis, verify_special_sign_identity
from .classify import enumerate_hc_spaces, sign_claims_hold
from .hcstruct import build_structure, verify_rotation
from .pairs import check_pair, complement_data, make_pair_spec
from .rootsystems import parse_shape, simple_type
from .scalars import EIGHTH_ROOT, TowerScalar
from .stem import hasse_export, stem_of, verify_stem_properties


def emit_json(record):
    click.echo(json.dumps(record, indent=2, sort_keys=True))


def fail(code=1):
    sys.exit(code)


def _shape(text):
    try:
        return parse_shape(text)
    except (ValueError, TypeError) as exc:
        raise click.UsageError(str(exc))


def _indices(text):
    toks = [t for t in text.replace(" ", "").split(",") if t]
    try:
        return tuple(int(t) for t in toks)
    except ValueError:
        raise click.UsageError("substem must be comma separated indices, "
                               "got %r" % text)


def _phases(text):
    try:
        vals = [TowerScalar.parse(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    return vals[0] if len(vals) == 1 else vals


def _pair_spec(g, substem, ok_dim):
    """The spec and its criterion report, or a usage error."""
    try:
        spec = make_pair_spec(_shape(g), _indices(substem), ok_dim)
        return spec, check_pair(spec)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
def main():
    """Exact stems, pair criteria, and invariant hypercomplex structures."""


@main.command()
@click.option("--type", "type_", required=True,
              help="shape such as 'E6', 'A3', or 'c^2 x A3 x D5'")
@click.option("--dot", type=click.Path(dir_okay=False, writable=True),
              default=None, help="write the stem order as a DOT digraph")
@click.option("--json", "as_json", is_flag=True)
def stem(type_, dot, as_json):
    """Stem roots, their wing sizes, and the stem partial order."""
    shape = _shape(type_)
    st = stem_of(shape)
    edges = sorted(st.hasse_edges(),
                   key=lambda e: (st.index(e[0]), st.index(e[1])))
    record = {
        "shape": str(shape),
        "size": len(st.elements),
        "srank": st.srank,
        "roots": [{
            "index": st.index(g),
            "component": g.comp,
            "coords": list(g.coords),
            "root": str(g),
            "wings": len(st.phi[g]),
            "stage": st.stage_of[g],
        } for g in st.elements],
        "hasse": [[st.index(a), st.index(b)] for a, b in edges],
    }
    if dot:
        with open(dot, "w") as fh:
            fh.write(hasse_export(st))
    if as_json:
        emit_json(record)
        return
    click.echo("stem of %s: %d roots, srank %d"
               % (shape, len(st.elements), st.srank))
    for row in record["roots"]:
        click.echo("  g%-2d = %-18s wings %-3d stage %d"
                   % (row["index"], row["root"], row["wings"], row["stage"]))
    if edges:
        click.echo("order: " + ", ".join("g%d < g%d" % (st.index(a), st.index(b))
                                         for a, b in edges))


@main.command()
@click.option("--type", "type_", required=True)
@click.option("--json", "as_json", is_flag=True)
def audit(type_, as_json):
    """Deficiency of every semisimple subalgebra from a substem; exit 0
    when every sign matches the type-by-type claim."""
    shape = _shape(type_)
    try:
        ok, rows, violations = sign_claims_hold(shape)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    record = {
        "shape": str(shape),
        "ok": ok,
        "rows": [r.to_dict() for r in rows],
        "violations": list(violations),
    }
    if as_json:
        emit_json(record)
    else:
        click.echo("audit of %s: %d substems" % (shape, len(rows)))
        for r in rows:
            click.echo("  antichain %-12s k = %-14s deficiency %3d"
                       % (list(r.antichain), r.subalgebra, r.deficiency))
        click.echo("signs: %s" % ("ok" if ok else "FAIL"))
        for v in violations:
            click.echo("  violation: %s" % v, err=True)
    if not ok:
        fail(1)


@main.command()
@click.option("--g", "g_", required=True, help="shape of the big algebra")
@click.option("--substem", default="", help="comma separated stem indices")
@click.option("--ok-dim", "ok_dim", default=0, type=int,
              help="extra central torus directions granted to k")
@click.option("--json", "as_json", is_flag=True)
def pair(g_, substem, ok_dim, as_json):
    """The numeric criterion for one candidate pair; exit 0 iff accepted."""
    spec, rep = _pair_spec(g_, substem, ok_dim)
    record = rep.to_dict()
    if rep.verdict:
        record["complement"] = complement_data(spec).to_dict()
    if as_json:
        emit_json(record)
    else:
        click.echo("pair %s, substem %s, extra torus %d"
                   % (spec.shape, list(spec.substem_indices), spec.o_k_dim))
        click.echo("  dim g %d, dim k %d, difference %d, deficiency %d"
                   % (rep.dim_g, rep.dim_k, rep.dim_diff, rep.deficiency))
        if rep.verdict:
            comp = record["complement"]
            click.echo("  complement: %d root directions, %d + %d + %d Cartan"
                       % (2 * comp["wing_roots"], comp["dim_w_p"],
                          comp["dim_z_p"], comp["dim_j_p"]))
        click.echo("verdict: %s%s"
                   % ("accepted" if rep.verdict else "rejected",
                      "" if rep.verdict else " (%s)" % ", ".join(rep.reasons)))
    if not rep.verdict:
        fail(1)


@main.command()
@click.option("--g", "g_", required=True)
@click.option("--substem", default="")
@click.option("--ok-dim", "ok_dim", default=0, type=int)
@click.option("--rho", default="1",
              help="unit scalar per free stem root (comma separated; a "
                   "single value broadcasts), e.g. 'i' or '1/2sqrt2+1/2isqrt2'")
@click.option("--verify", "verify_", default="all",
              type=click.Choice(["all", "fast"]),
              help="'fast' skips the rotation transport of eigenspaces")
@click.option("--json", "as_json", is_flag=True)
def build(g_, substem, ok_dim, rho, verify_, as_json):
    """Construct the two invariant structures and verify every identity;
    exit 0 iff the pair is accepted and no check fails."""
    spec, rep = _pair_spec(g_, substem, ok_dim)
    if not rep.verdict:
        click.echo("pair rejected (%s); nothing to build"
                   % ", ".join(rep.reasons), err=True)
        fail(1)
    phases = _phases(rho)
    try:
        hc = build_structure(spec, phases=phases)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    report = hc.verify_all(include_cayley=(verify_ == "all"))
    pb = hc.pbasis
    record = {
        "shape": str(spec.shape),
        "substem": list(spec.substem_indices),
        "o_k_dim": spec.o_k_dim,
        "phases": {str(g): str(pb.phases[g]) for g in pb.gamma_p},
        "dim_p": len(pb.labels),
        "free_stem_roots": [str(g) for g in pb.gamma_p],
        "verification": report.to_dict(),
    }
    if as_json:
        emit_json(record)
    else:
        click.echo("built (I, J) on the %d-dimensional complement of %s > k"
                   % (len(pb.labels), spec.shape))
        click.echo(report.summary())
        click.echo("verification: %s (%d checks)"
                   % ("ok" if report.ok else "FAIL", report.total_checked))
    if not report.ok:
        fail(1)


@main.command("enumerate")
@click.option("--max-dim", "max_dim", required=True, type=int)
@click.option("--json", "as_json", is_flag=True)
def enumerate_cmd(max_dim, as_json):
    """All products of admissible coset factors up to the given dimension."""
    spaces = enumerate_hc_spaces(max_dim)
    record = {
        "max_dim": max_dim,
        "count": len(spaces),
        "spaces": [s.to_dict() for s in spaces],
    }
    if as_json:
        emit_json(record)
        return
    click.echo("%d spaces of dimension at most %d" % (len(spaces), max_dim))
    for s in spaces:
        click.echo("  dim %-4d %s" % (s.dim, s.describe()))


SELFTEST_BUILDS = [
    ("A2", (), 0),
    ("A3", (2,), 0),
    ("A4", (2,), 0),
    ("A2 x A2", (), 0),
    ("c^4 x A2", (), 0),
]


@main.command()
@click.option("--max-rank", "max_rank", default=6, type=int, show_default=True)
def selftest(max_rank):
    """The whole invariant battery over every simple type up to the given
    rank, plus full builds of the accepted model pairs."""
    families = {"A": 1, "B": 2, "C": 2, "D": 4, "G": 2, "F": 4, "E": 6}
    types = []
    for fam, lo in sorted(families.items()):
        hi = {"G": 2, "F": 4}.get(fam, max_rank)
        for r in range(lo, hi + 1):
            try:
                types.append(simple_type(fam, r))
            except ValueError:
                continue
    bad = 0
    for t in types:
        shape = parse_shape(str(t))
        cb = make_basis(shape)
        st = stem_of(shape)
        ok = verify_stem_properties(st).ok
        ok = sign_claims_hold(shape)[0] and ok
        ok = verify_special_sign_identity(cb, st).ok and ok
        for g in st.elements:
            ok = verify_rotation(cb, st, g, rho=EIGHTH_ROOT).ok and ok
        bad += not ok
        click.echo("%-4s %s" % (t, "ok" if ok else "FAIL"))
    for shape_text, sub, ok_dim in SELFTEST_BUILDS:
        hc = build_structure(make_pair_spec(shape_text, sub, ok_dim))
        ok = hc.verify_all().ok
        bad += not ok
        click.echo("%-4s > substem %-6s %s"
                   % (shape_text, list(sub), "ok" if ok else "FAIL"))
    if bad:
        fail(1)
    click.echo("selftest ok")


if __name__ == "__main__":
    main()
