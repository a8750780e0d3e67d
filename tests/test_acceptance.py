"""Acceptance gate: one test per contract item, runtime bounds included.

Each test is a single pass/fail line under pytest -v.  Oracles are either
frozen literals, the independent Euclidean realizations from euclid_oracle,
or direct scans written inline with logic unrelated to the library's own.
"""

import time
from fractions import Fraction

from stemhc.chevalley import make_basis
from stemhc.classify import audit_type, enumerate_hc_spaces, sign_claims_hold
from stemhc.hcstruct import (
    build_structure, verify_rotation, verify_rotation_spans,
)
from stemhc.pairs import check_pair, make_pair_spec
from stemhc.rootsystems import SimpleType, build_cached, parse_shape, shape
from stemhc.scalars import EIGHTH_ROOT, I, ONE
from stemhc.stem import stem_of

import euclid_oracle as eo
from matrix_oracle import rotation_float_error
from partition_oracle import all_partition_stems
from test_stem import srank


def unit(n, entries):
    v = [Fraction(0)] * n
    for i, val in entries:
        v[i] = Fraction(val)
    return tuple(v)


def test_01_stem_tables():
    t0 = time.monotonic()
    # odd orthogonal ranks 5 and 7: the stem is the paired sums e_{2k-1}+e_{2k}
    # together with the matching differences, sums carrying the descending
    # even-orthogonal chain and the differences carrying single lines
    for p in (5, 7):
        q = (p - 1) // 2
        t = SimpleType("D", p)
        st = stem_of(shape(t))
        eu = {eo.to_euclid(t, g.coords): g for g in st.elements}
        sums = [unit(p, [(2 * k, 1), (2 * k + 1, 1)]) for k in range(q)]
        diffs = [unit(p, [(2 * k, 1), (2 * k + 1, -1)]) for k in range(q)]
        assert set(eu) == set(sums) | set(diffs)
        for k, v in enumerate(sums):
            d = p - 2 * k
            want = SimpleType("D", d) if d >= 4 else SimpleType("A", 3)
            assert st.rs.component_type(st.theta[eu[v]]) == want
        for v in diffs:
            assert st.rs.component_type(st.theta[eu[v]]) == SimpleType("A", 1)
    # the rank-6 exceptional type: a 4-chain with shrinking special linear
    # subsystems
    st = stem_of(parse_shape("E6"))
    assert len(st.elements) == 4
    chain = [st.rs.component_type(st.theta[g]) for g in st.elements]
    assert chain == [SimpleType("E", 6), SimpleType("A", 5),
                     SimpleType("A", 3), SimpleType("A", 1)]
    for a, b in zip(st.elements, st.elements[1:]):
        assert st.precedes(a, b)
    # special linear series: floor((n+1)/2) stem roots, types a_{n-2k+2}
    for n in range(1, 11):
        st = stem_of(parse_shape("A%d" % n))
        assert len(st.elements) == (n + 1) // 2
        for k, g in enumerate(st.elements, 1):
            assert st.rs.component_type(st.theta[g]) == \
                SimpleType("A", n - 2 * k + 2)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, "stem tables took %.2fs" % elapsed


def test_02_srank_identities():
    for n in range(2, 9):
        assert srank(parse_shape("B%d" % n)) == 2 * n
        assert srank(parse_shape("C%d" % n)) == 2 * n
    assert srank(parse_shape("D8")) == 16
    assert srank(parse_shape("E7")) == 14
    assert srank(parse_shape("E8")) == 16
    assert srank(parse_shape("F4")) == 8
    assert srank(parse_shape("G2")) == 4
    for q in (2, 3):
        assert srank(parse_shape("D%d" % (2 * q + 1))) == 4 * q
    assert srank(parse_shape("E6")) == 8


def test_03_partition_uniqueness():
    t0 = time.monotonic()
    labels = ["A%d" % n for n in range(1, 6)] + \
             ["B%d" % n for n in range(2, 5)] + \
             ["C%d" % n for n in range(2, 5)] + ["D4", "D5", "G2"]
    for lab in labels:
        rs = build_cached(parse_shape(lab))
        assert len(rs.positives) <= 20
        found = all_partition_stems(rs)
        assert len(found) == 1, "%s admits %d partitions" % (lab, len(found))
        assert found[0] == frozenset(stem_of(parse_shape(lab)).elements)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, "partition scan took %.2fs" % elapsed


def test_04_audits():
    t0 = time.monotonic()
    rows = {r.antichain: r for r in audit_type("E6")}
    assert set(rows) == {(), (2,), (3,), (4,)}
    assert rows[()].deficiency == -2
    assert all(rows[(k,)].deficiency == -1 for k in (2, 3, 4))
    # rank-5 orthogonal: sums sit at indices 1, 2 of the stem order and the
    # differences at 3, 4; mixed rows follow 2 + #(singles) - 2 * depth
    rows = {r.antichain: r for r in audit_type("D5")}
    assert rows[()].deficiency == -3
    t = SimpleType("D", 5)
    st = stem_of(shape(t))
    for ac, r in rows.items():
        if not ac:
            continue
        eus = [eo.to_euclid(t, st.elements[i - 1].coords) for i in ac]
        sums = [v for v in eus if sum(v) == 2]
        singles = len(eus) - len(sums)
        if sums:
            assert len(sums) == 1
            depth = list(sums[0]).index(1) // 2 + 1
            assert r.deficiency == 2 + singles - 2 * depth
        else:
            assert r.deficiency == singles - 3
    for n in range(1, 9):
        for r in audit_type("A%d" % n):
            want = -1 if (not r.substem and n % 2 == 1) else 0
            assert r.deficiency == want
    labels = ["A%d" % n for n in range(1, 9)] + \
             ["B%d" % n for n in range(2, 9)] + \
             ["C%d" % n for n in range(2, 9)] + \
             ["D%d" % n for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"]
    for lab in labels:
        ok, _, bad = sign_claims_hold(lab)
        assert ok, "%s: %s" % (lab, bad)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, "audits took %.2fs" % elapsed


def test_05_structure_builds():
    t0 = time.monotonic()
    pairs = [
        ("A2", (), 0),
        ("A3", (2,), 0),
        ("A4", (2,), 0),
        ("A2 x A2", (), 0),
        ("c^4 x A2", (), 0),
    ]
    for rho in (ONE, I, EIGHTH_ROOT):
        for shape_text, sub, ok_dim in pairs:
            spec = make_pair_spec(shape_text, sub, ok_dim)
            hc = build_structure(spec, phases=rho)
            rep = hc.verify_all()
            assert rep.ok, "%s rho=%s:\n%s" % (shape_text, rho, rep.summary())
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, "builds took %.2fs" % elapsed


def test_06_cayley_transforms():
    labels = ["A%d" % n for n in range(1, 5)] + \
             ["B%d" % n for n in range(2, 5)] + \
             ["C%d" % n for n in range(2, 5)] + ["D4", "F4", "G2"]
    for lab in labels:
        sh = parse_shape(lab)
        cb = make_basis(sh)
        st = stem_of(sh)
        for g in st.elements:
            rep = verify_rotation(cb, st, g, rho=EIGHTH_ROOT)
            assert rep.ok, "%s %s:\n%s" % (lab, g, rep.summary())
            assert rotation_float_error(cb, g, rho=EIGHTH_ROOT) < 1e-10
        rep = verify_rotation_spans(cb, st)
        assert rep.ok, "%s:\n%s" % (lab, rep.summary())


def test_07_classification():
    # direct scan of the quotient parameters, written independently of the
    # library enumerator: n >= 2, k >= 2, trivial-or-larger residual group
    singles = []
    for n in range(2, 33):
        for k in range(2, n + 2):
            rest = n + 3 - 2 * k
            if rest < 1:
                continue
            d = (n + 1) ** 2 - rest ** 2
            if d <= 32:
                singles.append((n, k, d))

    reference = set()

    def grow(start, acc, total):
        for i in range(start, len(singles)):
            n, k, d = singles[i]
            if total + d > 32:
                continue
            combo = tuple(sorted(acc + [(n, k)]))
            reference.add(combo)
            grow(i, acc + [(n, k)], total + d)

    grow(0, [], 0)
    spaces = enumerate_hc_spaces(32)
    got = [tuple(sorted((f.n, f.k) for f in s.factors)) for s in spaces]
    assert len(got) == len(set(got))
    assert set(got) == reference
    for s in spaces:
        rep = check_pair(s.to_pair_spec())
        assert rep.verdict and rep.deficiency == 0, s.describe()
