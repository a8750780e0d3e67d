"""Print every verifier report item the library produces on a fixed set of
inputs, one line per item: (name, checked, ok, violation_count, violations),
and then the pair layer and the Chevalley data those verifiers rest on.

Two checkouts that print the same lines give the same verdicts, the same
`checked` counts and the same pair data on these inputs, so diffing the
output of

    PYTHONPATH=src python3 scripts/verifier_reports.py

across a change shows whether it kept the verifiers' outputs.  The inputs:
`verify_all` on the five worked pairs and on every space of
`enumerate_hc_spaces(24)` at the phases 1, i and zeta8; `verify_rotation` on
every stem root, and `verify_rotation_spans` once, for each type in
ROTATION_TYPES at the same phases.  The same runs on the TORUS_BUILDS pairs,
whose subalgebras hold central directions.  The pair layer: `check_pair` on
every substem of every ATLAS_TYPES type, `complement_data` on the accepted
ones, the `audit_type` rows, and the Cartan vectors `o_k`, `z_vecs` and
`j_vecs` of every adapted basis built above.  The Chevalley data: one
sha256 per ATLAS_TYPES type over the sorted pairs of roots whose sum is a
root (`sum_triples`) with their constants `ChevalleyBasis.N`, `hroot`,
`killing_h` and B(E_r, E_-r) from those two (`killing_e`), each number with
its type.  The root sums: one sha256 per ATLAS_TYPES type over the sorted
triples (a, b, a+b) of `sum_triples`, the wing set `phi_plus_set` of every
positive root and the index rows `RootSystem._sum_rows`.  The subsystem
types: `component_type` of the whole root system, of every theta_g and of
every irreducible component of every Delta_k, for each ATLAS_TYPES type.
The stem checks: every `verify_stem_properties` item for each ATLAS_TYPES
type, and for the corrupted stems of each STEM_CORRUPTION_TYPES type (see
`stem_corruptions`).
The exact values: one sha256 per built structure over every entry of its
`i_matrix` and `j_matrix`, and one per ROTATION_TYPES type and phase over
every entry of `root_rotation(...).cols` for every stem root, so a diff
shows whether a change kept the exact scalars and not just the verdicts.
The same digest at zeta8 over every root, not only the stem roots, of each
ALL_ROOT_TYPES type: the rotations at short roots, and at roots with longer
strings through them, follow chains of (ad X)^k that no stem root's does.
Then the same digest at each of the ODD_PHASES, made twice in a row, so that
the second call reads whatever the first one left in a cache.  Likewise
every `verify_rotation` item on every stem root of each ROTATION_TYPES type
at each of the FRESH_PHASES, on a new basis per type and phase, printed
cold and then warm: the lines differ only in that word.
The largest cases, last: `verify_rotation` on every stem root of each
LARGE_ROTATION_TYPES type and `verify_all` on SU(17)/SU(15), the largest
complement here (dim p = 64), all at zeta8.
The phase errors, after them: the exception type and text that each phase
entry point (`PBasis`, `root_rotation`, `rotation_product`,
`verify_rotation`, `verify_rotation_spans` and `ChevalleyBasis.X`, on A3
with substem 2) raises on the phases 2 and 0, a dict key outside the stem
and a list of the wrong length, and that `TowerScalar.parse` raises on the
texts "2/0" and "x".
The failure paths, last: the integrability items of every single-column
mutant of I and of J (the column times 2, negated, times i, and the
conjugation by the scaling of its label by 2) at every label of each
MUTANT_BUILDS pair, at phase 1.  Then every `verify_rotation` item, at
every stem root, of every rotation mutant of each ROTATION_MUTANT_TYPES
type at zeta8: one stem rotation, as the library builds it for every
check, with its image of the first basis vector it fixes, or of the first
one it moves, times 2, plus the next basis vector, or zero.
"""

import hashlib
from contextlib import contextmanager
from fractions import Fraction

from stemhc import hcstruct
from stemhc.chevalley import ChevalleyBasis, make_basis
from stemhc.classify import audit_type, enumerate_hc_spaces
from stemhc.cli import SELFTEST_BUILDS
from stemhc.hcstruct import (HCStructure, PBasis, build_structure,
                             root_rotation, rotation_product,
                             verify_integrability, verify_rotation,
                             verify_rotation_spans)
from stemhc.pairs import (PairSpec, check_pair, complement_data,
                          delta_k, enumerate_substems, make_pair_spec)
from stemhc.rootsystems import Root, RootSystem, build_cached, parse_shape
from stemhc.scalars import EIGHTH_ROOT, HALF, I, ONE, TowerScalar
from stemhc.stem import (compute_stem, phi_plus_set, stem_of,
                         verify_stem_properties)

PHASES = (("1", ONE), ("i", I), ("zeta8", EIGHTH_ROOT))
ROTATION_TYPES = ("B4", "C4", "D4", "F4", "G2", "A7", "D6", "E6")
# pairs with central directions in the subalgebra or a torus in g
TORUS_BUILDS = (("c^1 x A1", (), 0), ("c^1 x C3", (2, 3), 0),
                ("c^2 x A3", (2,), 2), ("c^2 x A5", (), 1),
                ("c^1 x B2", (2,), 0), ("A6", (3,), 0))
LARGE_ROTATION_TYPES = ("E7", "E8")
# pairs whose structures are mutated one column at a time
MUTANT_BUILDS = (("A2", (), 0), ("A3", (2,), 0), ("A4", (2,), 0),
                 ("c^4 x A2", (), 0), ("c^1 x C3", (2, 3), 0))
ALL_ROOT_TYPES = ("G2", "B3", "C3", "F4")
# types whose stem rotations are mutated one image at a time
ROTATION_MUTANT_TYPES = ("A4", "D4", "c^1 x B3")
# unit phases with odd primes in their denominators, the second with sqrt2
ODD_PHASES = (("(3+4i)/5", TowerScalar(Fraction(3, 5), Fraction(4, 5))),
              ("zeta8^3 (-5+12i)/13",
               EIGHTH_ROOT * EIGHTH_ROOT * EIGHTH_ROOT
               * TowerScalar(Fraction(-5, 13), Fraction(12, 13))))
# unit phases that meet each rotation on a basis built for them
FRESH_PHASES = (("-i", -I), ("(3+4i)/5", TowerScalar(Fraction(3, 5),
                                                     Fraction(4, 5))),
                ("zeta8^3", EIGHTH_ROOT * EIGHTH_ROOT * EIGHTH_ROOT))
# types whose stems are corrupted one wing set or component at a time
STEM_CORRUPTION_TYPES = ("A3", "A5", "B3", "C4", "D4", "D5", "G2", "F4", "E6",
                         "A2 x A2")
# every simple type of rank <= 8
ATLAS_TYPES = (["A%d" % n for n in range(1, 9)]
               + ["B%d" % n for n in range(2, 9)]
               + ["C%d" % n for n in range(2, 9)]
               + ["D%d" % n for n in range(4, 9)]
               + ["E6", "E7", "E8", "F4", "G2"])


def show(label, rep):
    for it in rep.items:
        print(label, (it.name, it.checked, it.ok, it.violation_count,
                      it.violations))


def show_pair_layer(bases):
    for text in ATLAS_TYPES:
        sh = parse_shape(text)
        for sub in enumerate_substems(stem_of(sh)):
            spec = PairSpec(sh, sub.indices, 0)
            rep = check_pair(spec)
            print("%s pair |" % text, rep.to_dict())
            if rep.verdict:
                print("%s complement |" % text, complement_data(spec).to_dict())
        for row in audit_type(text):
            print("%s audit |" % text, row.to_dict())
    for label, pb in bases:
        for name in ("o_k", "z_vecs", "j_vecs"):
            print("%s %s |" % (label, name),
                  [[str(x) for x in v] for v in getattr(pb, name)])


def typed(v):
    """v with every number tagged by its type name, for hashing."""
    if isinstance(v, (tuple, list)):
        return [typed(x) for x in v]
    return (type(v).__name__, str(v))


def entries_digest(matrices):
    """sha256 over `str` of every entry of these dense matrices, in order."""
    digest = hashlib.sha256()
    for m in matrices:
        for row in m:
            digest.update(("|".join(map(str, row)) + "\n").encode())
        digest.update(b"--\n")
    return digest.hexdigest()


def killing_e(cb):
    """B(E_r, E_-r) = B(H_r, H_r) / 2 for the positive roots r, by
    invariance of the trace form, as [E_r, E_-r] = H_r and r(H_r) = 2."""
    K = cb.killing_h
    out = {}
    for r in cb.rs.positives:
        h = cb.hroot[r]
        out[r] = sum(hi * hj * K[i][j] for i, hi in enumerate(h) if hi
                     for j, hj in enumerate(h) if hj) / 2
    return out


def sum_triples(rs):
    """(a, b, a + b) over the ordered pairs of roots whose sum is a root,
    read off the index rows `RootSystem._sum_rows` in both orders."""
    roots = rs.roots
    for i, row in enumerate(rs._sum_rows):
        it = iter(row)
        for j, k in zip(it, it):
            yield roots[i], roots[j], roots[k]
            yield roots[j], roots[i], roots[k]


def show_chevalley_data():
    for text in ATLAS_TYPES:
        cb = make_basis(parse_shape(text))
        digest = hashlib.sha256()
        constants = sorted(((a, b), cb.N(a, b))
                           for a, b, _ in sum_triples(cb.rs))
        for name, items in (("n_const", constants),
                            ("hroot", sorted(cb.hroot.items())),
                            ("killing_h", enumerate(cb.killing_h)),
                            ("killing_e", sorted(killing_e(cb).items()))):
            for key, val in items:
                digest.update(repr((name, key, typed(val))).encode())
        print("%s chevalley data |" % text, digest.hexdigest())


def show_sum_tables():
    for text in ATLAS_TYPES:
        rs = stem_of(parse_shape(text)).rs
        digest = hashlib.sha256()
        for triple in sorted(sum_triples(rs)):
            digest.update(repr(("sums",) + triple).encode())
        for zeta in rs.positives:
            digest.update(repr(("phi", zeta,
                                sorted(phi_plus_set(rs, zeta)))).encode())
        for i, row in enumerate(rs._sum_rows):
            digest.update(repr(("sum_rows", i, row)).encode())
        print("%s sum tables |" % text, digest.hexdigest())


def show_subsystem_types():
    for text in ATLAS_TYPES:
        st = stem_of(parse_shape(text))
        rs = st.rs
        print("%s type |" % text, rs.component_type(rs.roots))
        for g in st.elements:
            print("%s theta %s |" % (text, g), rs.component_type(st.theta[g]))
        for sub in enumerate_substems(st):
            dk = delta_k(sub)
            comps = rs.irreducible_components(dk) if dk else []
            print("%s delta_k %s |" % (text, list(sub.indices)),
                  [str(rs.component_type(c)) for c in comps])


def stem_corruptions(text):
    """(label, stem) of the corrupted stems of a type, each on a fresh root
    system and stem, so that the cached `stem_of` stays clean.  For every
    ordered pair (g, d) of distinct stem roots where g has wings: the lowest
    wing of g moved into phi[d], phi[g] copied onto d, and theta[g] set to
    theta[d].  For every g with wings: its highest wing dropped."""
    def fresh():
        return compute_stem(RootSystem(parse_shape(text)))

    clean = fresh()
    for g in clean.elements:
        if not clean.phi[g]:
            continue
        for d in clean.elements:
            if d == g:
                continue
            st = fresh()
            low = min(st.phi[g], key=Root.key)
            st.phi[g] = st.phi[g] - {low}
            st.phi[d] = st.phi[d] | {low}
            yield "%s wing %s moved to %s" % (g, low, d), st
            st = fresh()
            st.phi[d] = st.phi[g]
            yield "wings of %s copied to %s" % (g, d), st
            st = fresh()
            st.theta[g] = st.theta[d]
            yield "theta of %s set to theta of %s" % (g, d), st
        st = fresh()
        high = max(st.phi[g], key=Root.key)
        st.phi[g] = st.phi[g] - {high}
        yield "%s wing %s dropped" % (g, high), st


def show_stem_checks(types, corruption_types):
    for text in types:
        show("%s stem checks |" % text,
             verify_stem_properties(stem_of(parse_shape(text))))
    for text in corruption_types:
        for label, st in stem_corruptions(text):
            show("%s stem checks, %s |" % (text, label),
                 verify_stem_properties(st))


def show_all_root_rotations():
    for text in ALL_ROOT_TYPES:
        cb = make_basis(parse_shape(text))
        roots = sorted(cb.rs.roots, key=Root.key)
        print("%s all-roots rotation digest @zeta8 |" % text,
              entries_digest(root_rotation(cb, g, EIGHTH_ROOT).cols
                             for g in roots))
        for name, rho in ODD_PHASES:
            for call in ("first", "second"):
                print("%s all-roots rotation digest @%s, %s call |"
                      % (text, name, call),
                      entries_digest(root_rotation(cb, g, rho).cols
                                     for g in roots))


def show_fresh_phase_rotations(types):
    """Every `verify_rotation` item on every stem root of each type at each
    FRESH_PHASES phase, on a new basis per type and phase: printed cold,
    where the first call at each root finds nothing of that root kept on
    the basis, and then warm, from what the cold calls left there."""
    bases = {}
    for call in ("cold", "warm"):
        for text in types:
            sh = parse_shape(text)
            st = stem_of(sh)
            for name, rho in FRESH_PHASES:
                cb = bases.setdefault((text, name),
                                      ChevalleyBasis(build_cached(sh)))
                for g in st.elements:
                    show("%s rotation %s @%s, %s |" % (text, g, name, call),
                         verify_rotation(cb, st, g, rho=rho))


def show_large_cases():
    for text in LARGE_ROTATION_TYPES:
        cb = make_basis(parse_shape(text))
        st = stem_of(parse_shape(text))
        for g in st.elements:
            show("%s rotation %s @zeta8 |" % (text, g),
                 verify_rotation(cb, st, g, rho=EIGHTH_ROOT))
    hc = build_structure(make_pair_spec("A16", (2,), 0), phases=EIGHTH_ROOT)
    show("A16 [2] 0 @zeta8 |", hc.verify_all())


def show_phase_errors():
    spec = make_pair_spec("A3", (2,), 0)
    cb, st = make_basis(spec.shape), stem_of(spec.shape)
    g = st.elements[0]
    entry_points = (
        ("PBasis", lambda rho: PBasis(spec, phases=rho)),
        ("root_rotation", lambda rho: root_rotation(cb, g, rho)),
        ("rotation_product",
         lambda rho: rotation_product(cb, st.elements, rho)),
        ("verify_rotation", lambda rho: verify_rotation(cb, st, g, rho)),
        ("verify_rotation_spans",
         lambda rho: verify_rotation_spans(cb, st, rho)),
        ("ChevalleyBasis.X", lambda rho: cb.X(g, rho)))
    bad = (("2", 2), ("0", 0), ("non-stem key", {Root(0, (1, 0, 0)): ONE}),
           ("three phases", [ONE, ONE, ONE]))
    calls = [(name, label, call, rho) for name, call in entry_points
             for label, rho in bad]
    calls += [("TowerScalar.parse", repr(text), TowerScalar.parse, text)
              for text in ("2/0", "x")]
    for name, label, call, arg in calls:
        try:
            call(arg)
            outcome = "no error"
        except Exception as exc:
            outcome = "%s: %s" % (type(exc).__name__, exc)
        print("phase error | %s %s |" % (name, label), outcome)


def column_mutants(cols, j):
    """(name, columns) of the four single-column mutants at label j."""
    def at_j(c):
        return [{i: v * c for i, v in col.items()} if k == j else col
                for k, col in enumerate(cols)]

    # D cols D^-1 with D = 2 at label j: row j doubles, column j halves
    conjugated = [{i: v * (HALF if k == j else ONE) * (2 if i == j else ONE)
                   for i, v in col.items()} for k, col in enumerate(cols)]
    return (("x2", at_j(2)), ("negated", at_j(-ONE)), ("xi", at_j(I)),
            ("conjugated", conjugated))


def show_mutants():
    for text, sub, ok_dim in MUTANT_BUILDS:
        hc = build_structure(make_pair_spec(text, sub, ok_dim))
        for j, lab in enumerate(hc.pbasis.labels):
            for opname in ("I", "J"):
                cols = hc.i_cols if opname == "I" else hc.j_cols
                for name, mutant in column_mutants(cols, j):
                    i_cols, j_cols = ((mutant, hc.j_cols) if opname == "I"
                                      else (hc.i_cols, mutant))
                    broken = HCStructure(hc.pbasis, i_cols, j_cols,
                                         hc.tau_cols)
                    show("%s %s %d mutant %s %s at %d %s %s |"
                         % ((text, list(sub), ok_dim, opname, name, j) + lab),
                         verify_integrability(broken))


def rotation_mutants(cb, rot):
    """(where, name, k, image) of the mutants of rot: its image of the first
    basis vector it fixes, and of the first one it moves, times 2, plus the
    next basis vector, or zero."""
    n = len(rot.images)
    moves = [rot.images[k] != cb.basis[k] for k in range(n)]
    for where, k in (("fixed", moves.index(False)),
                     ("moved", moves.index(True))):
        image = rot.images[k]
        for name, mutant in (("x2", image.scale(2)),
                             ("plus next", image + cb.basis[(k + 1) % n]),
                             ("zeroed", cb.zero())):
            yield where, name, k, mutant


@contextmanager
def bent_rotation(gamma, k, image):
    """Every rotation at gamma that the library builds meanwhile, with its
    image of basis vector k replaced by image."""
    real = hcstruct.root_rotation

    def bent(cb, g, rho=ONE):
        rot = real(cb, g, rho)
        if g == gamma:
            rot.moved[k] = image
        return rot

    hcstruct.root_rotation = bent
    try:
        yield
    finally:
        hcstruct.root_rotation = real


def show_rotation_mutants():
    for text in ROTATION_MUTANT_TYPES:
        cb = make_basis(parse_shape(text))
        st = stem_of(parse_shape(text))
        for bent in st.elements:
            rot = root_rotation(cb, bent, EIGHTH_ROOT)
            for where, name, k, image in rotation_mutants(cb, rot):
                with bent_rotation(bent, k, image):
                    for g in st.elements:
                        show("%s rotation %s mutant %s at %s %s %s, "
                             "verified at %s @zeta8 |"
                             % ((text, bent, name, where) + cb.basis_keys[k]
                                + (g,)),
                             verify_rotation(cb, st, g, rho=EIGHTH_ROOT))


def main():
    builds = list(SELFTEST_BUILDS) + list(TORUS_BUILDS)
    specs = [("%s %s %d" % (text, list(sub), ok_dim),
              make_pair_spec(text, sub, ok_dim))
             for text, sub, ok_dim in builds]
    specs += [(s.describe(), s.to_pair_spec()) for s in enumerate_hc_spaces(24)]
    bases = []
    for label, spec in specs:
        for name, rho in PHASES:
            hc = build_structure(spec, phases=rho)
            show("%s @%s |" % (label, name), hc.verify_all())
            print("%s @%s I, J digest |" % (label, name),
                  entries_digest((hc.i_matrix, hc.j_matrix)))
            bases.append(("%s @%s |" % (label, name), hc.pbasis))
    for text in ROTATION_TYPES:
        cb = make_basis(parse_shape(text))
        st = stem_of(parse_shape(text))
        for name, rho in PHASES:
            print("%s rotation digest @%s |" % (text, name),
                  entries_digest(root_rotation(cb, g, rho).cols
                                 for g in st.elements))
            for g in st.elements:
                show("%s rotation %s @%s |" % (text, g, name),
                     verify_rotation(cb, st, g, rho=rho))
            show("%s spans @%s |" % (text, name),
                 verify_rotation_spans(cb, st, rho))
    show_all_root_rotations()
    show_fresh_phase_rotations(ROTATION_TYPES)
    show_pair_layer(bases)
    show_chevalley_data()
    show_sum_tables()
    show_subsystem_types()
    show_stem_checks(ATLAS_TYPES, STEM_CORRUPTION_TYPES)
    show_large_cases()
    show_phase_errors()
    show_mutants()
    show_rotation_mutants()


if __name__ == "__main__":
    main()
