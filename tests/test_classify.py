"""Audit tables, zero-deficiency recognition, and the admissible space list."""

import itertools

import pytest

from stemhc.classify import (
    HCSpace, SpaceFactor, audit_type, enumerate_hc_spaces, sign_claims_hold,
    _all_factors,
)
from stemhc.pairs import PairSpec, check_pair, enumerate_substems
from stemhc.rootsystems import parse_shape
from stemhc.stem import stem_of
from test_rootsystems import optimized_stdout


def recognize_semisimple_pair(spec: PairSpec) -> bool:
    """Zero-deficiency test by shape alone: every simple factor is either
    swallowed whole, or of type A with the substem a tail starting at depth
    two or more (empty tails need even rank)."""
    if spec.shape.center_dim or spec.o_k_dim:
        raise ValueError("recognition covers semisimple pairs only")
    st = stem_of(spec.shape)
    sub = spec.substem()
    for ci, t in enumerate(spec.shape.simples):
        chain = [g for g in st.elements if g.comp == ci]
        picked = [g in sub.members for g in chain]
        if all(picked):
            continue
        if t.family != "A":
            return False
        if not any(picked):
            if t.rank % 2 == 1:
                return False
            continue
        # a tail gamma_k.., k >= 2 counted inside this component
        first = picked.index(True)
        if first == 0 or not all(picked[first:]):
            return False
    return True


# Independent oracle for the space enumeration, straight from the group
# dimensions: SU(a)/SU(b) has dimension (a^2-1)-(b^2-1), a factor is any
# (n, k) with n >= 2, k >= 2 and a positive remaining subgroup order.
def brute_spaces(max_dim):
    fs = []
    for n in range(2, max_dim + 3):
        for k in range(2, n + 2):
            b = n + 3 - 2 * k
            if b < 1:
                continue
            d = ((n + 1) ** 2 - 1) - (b ** 2 - 1)
            if d <= max_dim:
                fs.append((n, k, d))
    out = set()

    def rec(start, acc, total):
        for i in range(start, len(fs)):
            n, k, d = fs[i]
            if total + d > max_dim:
                continue
            cur = acc + ((n, k),)
            out.add(tuple(sorted(cur)))
            rec(i, cur, total + d)

    rec(0, (), 0)
    return out


def as_multiset(space):
    return tuple(sorted((f.n, f.k) for f in space.factors))


def test_enumeration_matches_direct_scan():
    spaces = enumerate_hc_spaces(32)
    got = [as_multiset(s) for s in spaces]
    assert len(got) == len(set(got)), "duplicate multisets"
    assert set(got) == brute_spaces(32)
    assert len(spaces) == 24


def test_enumeration_small_cut_offs():
    assert enumerate_hc_spaces(3) == []
    assert enumerate_hc_spaces(7) == []
    only = enumerate_hc_spaces(8)
    assert len(only) == 1 and only[0].describe() == "SU(3)"
    assert [s.dim for s in enumerate_hc_spaces(20)] == [8, 12, 16, 16, 20, 20]


def test_every_space_reaches_deficiency_zero():
    for s in enumerate_hc_spaces(32):
        spec = s.to_pair_spec()
        rep = check_pair(spec)
        assert rep.deficiency == 0, s.describe()
        assert rep.verdict, s.describe()
        assert rep.dim_diff == s.dim
        assert recognize_semisimple_pair(spec)


def test_factor_dimension_formula():
    for n in range(2, 12):
        for k in range(2, (n + 2) // 2 + 1):
            d = SpaceFactor(n, k).dim
            assert d == (n + 1) ** 2 - (n + 3 - 2 * k) ** 2
            assert d % 4 == 0 and d > 0


def test_space_factor_rejects_out_of_range_parameters():
    """The checks hold under -O as well: SpaceFactor(2, 3) would be
    "SU(3)/SU(-1)" of dimension 8."""
    for n, k in [(2, 3), (1, 2), (2, 1), (5, 5)]:
        with pytest.raises(ValueError, match="n = %d, k = %d" % (n, k)):
            SpaceFactor(n, k)
    script = ("from stemhc.classify import SpaceFactor\n"
              "for args in [(2, 3), (1, 2)]:\n"
              "    try:\n"
              "        print(SpaceFactor(*args))\n"
              "    except ValueError as exc:\n"
              "        print(type(exc).__name__)\n")
    assert optimized_stdout(script).split() == ["ValueError"] * 2


def test_full_group_factors_are_deduplicated():
    fs = _all_factors(32)
    assert len({(f.n, f.k) for f in fs}) == len(fs)
    su5 = SpaceFactor(4, 3)
    assert su5 in fs
    assert su5.is_full_group and su5.describe() == "SU(5)"
    assert su5.provenances() == ("SU(5)", "SU(5)/SU(1)")
    su3 = SpaceFactor(2, 2)
    assert su3.is_full_group and su3.dim == 8
    q = SpaceFactor(3, 2)
    assert not q.is_full_group and q.describe() == "SU(4)/SU(2)"
    assert q.provenances() == ("SU(4)/SU(2)",)
    # odd-rank full groups never appear: subgroup order n+3-2k is odd iff
    # n is even, so k=(n+2)/2 needs n even
    assert all(f.n % 2 == 0 for f in fs if f.is_full_group)


def test_space_dict_and_pair_spec_shape():
    s = enumerate_hc_spaces(20)[1]          # SU(4)/SU(2)
    assert s.describe() == "SU(4)/SU(2)"
    spec = s.to_pair_spec()
    assert str(spec.shape) == "A3" and spec.substem_indices == (2,)
    d = s.to_dict()
    assert d["dim"] == 12 and d["factors"][0]["names"] == ["SU(4)/SU(2)"]
    two = HCSpace((SpaceFactor(2, 2), SpaceFactor(3, 2)))
    spec2 = two.to_pair_spec()
    assert str(spec2.shape) == "A2 x A3"
    st = stem_of(spec2.shape)
    assert [st.elements[i - 1].comp for i in spec2.substem_indices] == [1]


# ----------------------------------------------------------------- audit


def rows_by_antichain(label):
    return {r.antichain: r for r in audit_type(label)}


def test_audit_e6_exact_values():
    rows = rows_by_antichain("E6")
    assert set(rows) == {(), (2,), (3,), (4,)}
    assert rows[()].deficiency == -2
    for k in (2, 3, 4):
        assert rows[(k,)].deficiency == -1
    assert rows[(2,)].subalgebra == "A5"
    assert rows[(2,)].substem == (2, 3, 4)
    assert rows[(3,)].subalgebra == "A3"
    assert rows[(4,)].subalgebra == "A1"
    assert rows[()].subalgebra == "0"


def test_audit_d5_exact_values():
    rows = rows_by_antichain("D5")
    assert set(rows) == {(), (2,), (3,), (4,), (2, 3), (3, 4)}
    assert rows[()].deficiency == -3
    assert rows[(2,)].deficiency == -2      # 2 + #A - 2k with k=2, A empty
    assert rows[(3,)].deficiency == -2      # bottom only: #A - 2q + 1
    assert rows[(4,)].deficiency == -2
    assert rows[(2, 3)].deficiency == -1    # 2 + 1 - 4
    assert rows[(3, 4)].deficiency == -1    # 2 - 4 + 1
    assert rows[(2, 3)].subalgebra == "A3 x A1"
    assert rows[(3, 4)].subalgebra == "A1 x A1"


def test_audit_a_series_rows():
    for n in range(1, 9):
        ok, rows, bad = sign_claims_hold("A%d" % n)
        assert ok, bad
        for r in rows:
            want = -1 if (not r.substem and n % 2 == 1) else 0
            assert r.deficiency == want
        # the substems of a chain are tails, one row per cut plus empty
        assert len(rows) == (n + 1) // 2


def test_audit_rejects_products_and_centers():
    with pytest.raises(ValueError):
        audit_type("A2 x A2")
    with pytest.raises(ValueError):
        audit_type("c^1 x A2")


@pytest.mark.parametrize("label", [
    "B2", "B3", "B4", "B5", "B6", "B7", "B8",
    "C2", "C3", "C4", "C5", "C6", "C7", "C8",
    "D4", "D5", "D6", "D7", "D8",
    "E6", "E7", "E8", "F4", "G2",
])
def test_audit_sign_claims_non_a(label):
    ok, rows, bad = sign_claims_hold(label)
    assert ok, bad
    assert rows, "audit produced no rows"
    assert all(r.deficiency < 0 for r in rows)


def test_audit_d4_full_table():
    rows = rows_by_antichain("D4")
    assert {a: r.deficiency for a, r in rows.items()} == {
        (): -4, (2,): -3, (3,): -3, (4,): -3,
        (2, 3): -2, (2, 4): -2, (3, 4): -2, (2, 3, 4): -1,
    }


# ------------------------------------------------------------ recognition


def test_recognition_matches_deficiency():
    shapes = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "C3", "D4",
              "G2", "A2 x A2", "A1 x A3", "B2 x A2", "A2 x B2 x A1"]
    seen_true = 0
    for text in shapes:
        sh = parse_shape(text)
        st = stem_of(sh)
        for sub in enumerate_substems(st):
            spec = PairSpec(sh, sub.indices, 0)
            rec = recognize_semisimple_pair(spec)
            assert rec == (check_pair(spec).deficiency == 0), (text,
                                                               sub.indices)
            seen_true += rec
    assert seen_true > 10


def test_recognition_details():
    sh = parse_shape("A4")
    st = stem_of(sh)
    assert recognize_semisimple_pair(PairSpec(sh, (2,), 0))
    assert recognize_semisimple_pair(PairSpec(sh, (1, 2), 0))   # swallowed
    assert recognize_semisimple_pair(PairSpec(sh, (), 0))       # n even
    odd = parse_shape("A3")
    assert not recognize_semisimple_pair(PairSpec(odd, (), 0))  # n odd
    b2 = parse_shape("B2")
    assert not recognize_semisimple_pair(PairSpec(b2, (2,), 0))
    assert recognize_semisimple_pair(PairSpec(b2, (1, 2), 0))   # whole B2
    with pytest.raises(ValueError):
        recognize_semisimple_pair(PairSpec(parse_shape("c^1 x A2"), (), 0))
    with pytest.raises(ValueError):
        recognize_semisimple_pair(PairSpec(parse_shape("A2"), (), 1))
