"""Substems and the numeric pair criterion."""

import dataclasses
from fractions import Fraction

import pytest

from stemhc import linalg, pairs
from stemhc.pairs import (
    PairSpec, Substem, check_pair, complement_data, delta_k,
    enumerate_substems, make_pair_spec, minimal_elements,
    REASON_DEFICIENCY_NEGATIVE, REASON_DIM_NOT_MOD4, REASON_DIM_NOT_POSITIVE,
)
from stemhc.reporting import CheckReport
from stemhc.rootsystems import parse_shape
from stemhc.stem import stem_of
from test_hcstruct import ATLAS_TYPES
from test_rootsystems import optimized_stdout

from cascade_oracle import nodes, shape_cascade


def shape(text):
    return parse_shape(text)


def spec(text, substem=(), o_k_dim=0):
    return make_pair_spec(shape(text), substem, o_k_dim)


def dense_rank(rs, roots):
    """Rank of the roots' simple-root coordinates, one column block per
    simple factor, by a dense Fraction row reduction."""
    offsets = [0]
    for t in rs.shape.simples:
        offsets.append(offsets[-1] + t.rank)
    rows = []
    for r in roots:
        row = [Fraction(0)] * offsets[-1]
        for i, c in enumerate(r.coords):
            row[offsets[r.comp] + i] = Fraction(c)
        rows.append(row)
    return len(linalg.rref(rows)[0])


# ---------------------------------------------------------------- substems


def test_substem_up_closes():
    st = stem_of(shape("E6"))
    sub = Substem(st, [2])
    assert sub.indices == (2, 3, 4)
    # naming a deeper root changes nothing
    assert Substem(st, [2, 4]).indices == (2, 3, 4)
    assert Substem(st, [1]).indices == (1, 2, 3, 4)
    assert Substem(st, []).indices == ()


def test_substem_accepts_roots_and_indices():
    st = stem_of(shape("A4"))
    g2 = st.elements[1]
    assert Substem(st, [g2]) == Substem(st, [2])
    assert Substem(st, [g2, 1]).indices == (1, 2)


def test_substem_rejects_garbage():
    st = stem_of(shape("A3"))
    with pytest.raises(ValueError):
        Substem(st, [3])
    with pytest.raises(ValueError):
        Substem(st, [0])
    with pytest.raises(ValueError):
        Substem(st, [st.rs.positives[0]])  # a simple root, not a stem root
    with pytest.raises(TypeError):
        Substem(st, ["2"])


def brute_up_closed(st):
    n = len(st.elements)
    out = []
    for mask in range(1 << n):
        s = {st.elements[i] for i in range(n) if mask >> i & 1}
        if all(d in s for g in s for d in st.elements if st.precedes(g, d)):
            out.append(frozenset(s))
    return set(out)


@pytest.mark.parametrize("text,count", [
    ("A1", 2),      # chain of 1
    ("A3", 3),      # chain of 2
    ("A5", 4),      # chain of 3
    ("E6", 5),      # chain of 4
    ("D4", 9),      # one root under an antichain of three
    ("D5", 7),      # gamma1 < gamma2 < gamma4, gamma1 < gamma3
    ("A2 x A2", 4),
    ("B4", 7),
    ("D6", 19),
    ("D8", 39),     # eight stem roots
    ("E7", 20),
    ("E8", 21),     # eight stem roots
])
def test_enumerate_substems_counts(text, count):
    st = stem_of(shape(text))
    subs = enumerate_substems(st)
    assert len(subs) == count
    assert {s.members for s in subs} == brute_up_closed(st)
    # canonical order: by size, then indices
    keys = [(len(s.indices), s.indices) for s in subs]
    assert keys == sorted(keys)
    # closure is idempotent and regenerated by the minimal elements
    for s in subs:
        assert Substem(st, minimal_elements(s)).members == s.members


def filtered_substems(st):
    """The substems as `enumerate_substems` found them before it grew them:
    each of the 2^n subsets of the stem, kept when up-closing leaves it as
    it is, sorted by size then indices."""
    n = len(st.elements)
    out = []
    for mask in range(1 << n):
        chosen = {st.elements[i] for i in range(n) if mask >> i & 1}
        if st.up_closure(chosen) == chosen:
            out.append(Substem(st, chosen))
    out.sort(key=lambda s: (len(s.indices), s.indices))
    return out


# products with and without a center
PRODUCT_SHAPES = ["A2 x A2", "c^1 x B3", "A1 x A1 x A1", "D4 x A3",
                  "B3 x C3 x G2", "c^2 x A3 x B2", "E6 x A1"]


def test_grown_substems_equal_the_subset_filter():
    """Growing the up-closed subsets gives the filter's list, in its order,
    on every atlas type and on products."""
    for text in ATLAS_TYPES + PRODUCT_SHAPES:
        st = stem_of(shape(text))
        got = [(s.indices, s.members) for s in enumerate_substems(st)]
        assert got == [(s.indices, s.members)
                       for s in filtered_substems(st)], text


def test_minimal_elements():
    st = stem_of(shape("E6"))
    assert minimal_elements(Substem(st, [2])) == (st.elements[1],)
    st4 = stem_of(shape("D4"))
    sub = Substem(st4, [2, 3])
    assert minimal_elements(sub) == (st4.elements[1], st4.elements[2])
    assert minimal_elements(Substem(st4, [1])) == (st4.elements[0],)


def test_delta_k_is_closed_and_symmetric():
    for text in ["A3", "A4", "B3", "C3", "D4", "G2", "A2 x A2"]:
        st = stem_of(shape(text))
        for sub in enumerate_substems(st):
            dk = delta_k(sub)
            assert dk == {-r for r in dk}
            assert st.rs.is_closed(dk)
            # never more stem roots than the rank of the span
            rk = dense_rank(st.rs, [r for r in dk if r.positive])
            assert len(sub) <= rk or not sub.members


# ---------------------------------------------------------------- criterion


def test_pair_su4_su2():
    rep = check_pair(spec("A3", [2]))
    assert rep.rank_g == 3 and rep.srank_g == 4
    assert rep.rank_k == 1 and rep.srank_k == 2
    assert rep.dim_g == 15 and rep.dim_k == 3
    assert rep.dim_diff == 12
    assert rep.deficiency == 0
    assert rep.verdict and rep.reasons == ()


def test_pair_su3_trivial():
    rep = check_pair(spec("A2"))
    assert rep.dim_diff == 8 and rep.deficiency == 0
    assert rep.verdict


def test_pair_su5_su3():
    rep = check_pair(spec("A4", [2]))
    assert rep.rank_k_semisimple == 2
    assert rep.dim_diff == 16 and rep.deficiency == 0
    assert rep.verdict


def test_pair_e6_a5_rejected():
    rep = check_pair(spec("E6", [2]))
    assert rep.spec.substem_indices == (2, 3, 4)
    assert rep.rank_k == 5 and rep.srank_k == 6
    assert rep.dim_g == 78 and rep.dim_k == 35
    assert rep.dim_diff == 43
    assert rep.deficiency == 6 + 6 - 5 - 8 == -1
    assert not rep.verdict
    assert rep.reasons == (REASON_DIM_NOT_MOD4, REASON_DEFICIENCY_NEGATIVE)


def test_pair_with_center():
    rep = check_pair(spec("c^4 x A2"))
    assert rep.rank_g == 6 and rep.srank_g == 2
    assert rep.dim_g == 12 and rep.dim_diff == 12
    assert rep.deficiency == 4
    assert rep.verdict


def test_pair_k_equals_g():
    rep = check_pair(spec("A3", [1]))
    assert rep.dim_diff == 0
    assert rep.reasons == (REASON_DIM_NOT_POSITIVE,)
    assert not rep.verdict


def test_pair_b2_deficiency():
    rep = check_pair(spec("B2"))
    assert rep.srank_g == 4
    assert rep.deficiency == -2
    assert REASON_DEFICIENCY_NEGATIVE in rep.reasons


# 2s - r, with s the number of stem roots, pinned per simple type: 0 on
# A_even and 1 on A_odd, n on B_n and C_n, n on D_n for even n and n - 2 for
# odd n
LEAST_TORUS = dict(
    [("A%d" % n, n % 2) for n in range(1, 9)]
    + [("%s%d" % (f, n), n) for f in "BC" for n in range(2, 9)]
    + [("D%d" % n, n if n % 2 == 0 else n - 2) for n in range(4, 9)]
    + [("E6", 2), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])


@pytest.mark.parametrize("text", [t for t in ATLAS_TYPES if t != "C2"])
def test_least_torus_is_twice_the_stem_size_minus_the_rank(text):
    """On the 31 simple types of rank <= 8 (C2 is B2), with s the number of
    nodes of the cascade, which reads no root: `check_pair` accepts c^m x G
    with trivial k at m = 2s - r, and rejects it at m - 1 when m > 0."""
    sh = shape(text)
    m = 2 * len(nodes(shape_cascade(sh))) - sh.rank
    assert m == LEAST_TORUS[text]

    def accepted(torus):
        return check_pair(spec("c^%d x %s" % (torus, text) if torus
                               else text)).verdict
    assert accepted(m)
    assert m == 0 or not accepted(m - 1)


def test_o_k_dim_bounds():
    with pytest.raises(ValueError):
        check_pair(spec("A3", [2], o_k_dim=2))
    with pytest.raises(ValueError):
        check_pair(spec("A3", [2], o_k_dim=-1))
    with pytest.raises(ValueError):
        # the A5 Cartan already fills both central directions of E6
        check_pair(spec("E6", [2], o_k_dim=1))
    rep = check_pair(spec("A3", [2], o_k_dim=1))
    assert rep.rank_k == 2 and rep.deficiency == -1
    assert not rep.verdict


def test_report_dict_round_trip():
    d = check_pair(spec("A4", [2])).to_dict()
    assert d["shape"] == "A4" and d["substem"] == [2]
    assert d["verdict"] is True and d["reasons"] == []


# ----------------------------------------------------------- complement


def test_complement_su4_su2():
    cd = complement_data(spec("A3", [2]))
    st = stem_of(shape("A3"))
    assert cd.gamma_p == (st.elements[0],)
    assert len(cd.delta_p_plus) == 5
    assert (cd.dim_h_p, cd.dim_o_p) == (2, 1)
    assert (cd.dim_w_p, cd.dim_z_p, cd.dim_j_p) == (1, 1, 0)
    assert cd.dim_p == 12


def test_complement_with_center():
    cd = complement_data(spec("c^4 x A2"))
    assert cd.dim_h_p == 6 and cd.dim_o_p == 5
    assert cd.dim_j_p == 4
    assert cd.dim_p == 12


def test_complement_requires_verdict():
    for s, reasons in ((spec("A3", [1]), "DIM_NOT_POSITIVE"),
                       (spec("B2"), "DIM_NOT_MOD4, DEFICIENCY_NEGATIVE"),
                       (spec("E6", [2]), "DIM_NOT_MOD4, DEFICIENCY_NEGATIVE")):
        with pytest.raises(ValueError) as exc:
            complement_data(s)
        assert str(exc.value) == "pair fails the criterion (%s)" % reasons


def test_complement_dims_sweep():
    for text in ["A2", "A3", "A4", "A5", "c^1 x A1", "c^4 x A2", "A2 x A2"]:
        st = stem_of(shape(text))
        for sub in enumerate_substems(st):
            s = PairSpec(shape(text), sub.indices, 0)
            rep = check_pair(s)
            if not rep.verdict:
                continue
            cd = complement_data(s)
            assert cd.report == rep
            assert cd.dim_p == rep.dim_diff
            assert cd.dim_h_p == 2 * cd.dim_w_p + cd.dim_j_p
            assert cd.dim_j_p % 4 == 0
            assert rep.deficiency == cd.dim_o_p - cd.dim_z_p


def edm1_equalities(s):
    """The deficiency and its two complement-side forms, counted here from
    the pair report and the substem: the free stem roots num_p, the Cartan
    directions lost to p, and the central directions inside p.  All three
    agree for any spec (an arithmetic identity)."""
    report = check_pair(s)
    sub = s.substem()
    num_p = len(sub.stem.elements) - len(sub.members)
    dim_h_p = report.rank_g - report.rank_k
    dim_o_p = (report.rank_g - len(sub.stem.elements)) \
        - (report.rank_k - len(sub.members))
    triple = (report.deficiency, dim_h_p - 2 * num_p, dim_o_p - num_p)
    return {"deficiency": triple[0], "via_h_p": triple[1],
            "via_o_p": triple[2],
            "equal": triple[0] == triple[1] == triple[2]}


def test_edm1_equalities_exact():
    d = edm1_equalities(spec("A4", [2]))
    assert d == {"deficiency": 0, "via_h_p": 0, "via_o_p": 0, "equal": True}


def test_edm1_equalities_always_agree():
    for text in ["A3", "B3", "C3", "D4", "G2", "E6", "c^2 x B2"]:
        st = stem_of(shape(text))
        for sub in enumerate_substems(st):
            d = edm1_equalities(PairSpec(shape(text), sub.indices, 0))
            assert d["equal"], (text, sub.indices, d)


# ----------------------------------------------------------------- gmg2


def gmg2_check(spec) -> CheckReport:
    """Wings of free stem roots absorb the subalgebra's roots: for gamma
    outside the substem, beta in Delta_k and alpha in the wings of gamma,
    alpha + beta is either outside Delta or again a wing of gamma, and
    gamma +- beta is never a root.

    Holds for every up-closed substem (the stem properties force it).
    Accepts a PairSpec or a bare Substem."""
    rep = CheckReport()
    sub = spec if isinstance(spec, Substem) else spec.substem()
    stem = sub.stem
    rs = stem.rs
    dk = delta_k(sub)
    checked = 0
    bad = []
    for g in sub.complement_roots():
        wings = set(stem.phi[g]) | {-w for w in stem.phi[g]}
        for beta in dk:
            checked += 1
            if rs.sum(g, beta) is not None:
                bad.append("%s + %s is a root" % (g, beta))
            for a in wings:
                s = rs.sum(a, beta)
                if s is not None:
                    checked += 1
                    if s not in wings:
                        bad.append("%s + %s leaves the wings of %s"
                                   % (a, beta, g))
    rep.record("subalgebra roots act inside each free wing set", checked, bad)
    return rep


def test_gmg2_on_accepted_pairs():
    names = ["A2", "A3", "A4", "A5", "A6", "A2 x A2", "c^4 x A2",
             "c^1 x A1 x A3"]
    hits = 0
    for text in names:
        sh = shape(text)
        st = stem_of(sh)
        for sub in enumerate_substems(st):
            s = PairSpec(sh, sub.indices, 0)
            if not check_pair(s).verdict:
                continue
            hits += 1
            rep = gmg2_check(s)
            assert rep.ok, rep.summary()
    assert hits >= 8


def test_gmg2_holds_for_every_substem():
    # the stem properties force this even when the pair itself is rejected
    for text in ["B2", "B3", "C3", "D4", "G2", "F4", "E6"]:
        st = stem_of(shape(text))
        for sub in enumerate_substems(st):
            rep = gmg2_check(sub)
            assert rep.ok, rep.summary()


def test_gmg2_detects_interaction():
    # forge a set that skips the up-closure: in d4 the top root's wings do
    # interact with the deep roots, so "substem {gamma1} alone" must be
    # flagged (the real api cannot produce it)
    st = stem_of(shape("D4"))
    sub = Substem(st, [])
    sub.members = frozenset([st.elements[0]])
    sub.indices = (1,)
    rep = gmg2_check(sub)
    assert not rep.ok
    assert any("is a root" in v for it in rep.items for v in it.violations)


def test_gmg2_empty_substem_trivial():
    rep = gmg2_check(spec("A4"))
    assert rep.ok


# ----------------------------------------------------------------- misc


def test_pair_spec_hashable_and_canonical():
    a = make_pair_spec(shape("E6"), [2])
    b = make_pair_spec(shape("E6"), [4, 2])
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_pair_spec_rejects_a_substem_that_is_not_canonical():
    """A spec names its up-closed substem by its sorted indices; a spec that
    names it otherwise raises rather than reporting the raw tuple."""
    for text, raw, canonical in (("A3", (1,), (1, 2)),
                                 ("A5", (3, 2), (2, 3))):
        s = PairSpec(shape(text), raw, 0)
        with pytest.raises(ValueError, match=r"name it \(%d, %d\)"
                           % canonical):
            check_pair(s)
        assert check_pair(PairSpec(shape(text), canonical, 0)) \
            .to_dict()["substem"] == list(canonical)


# the type of the peeled component theta_g at each stem root, in stem order
THETA_TYPES = {
    "A1": "A1", "A2": "A2", "A3": "A3 A1", "A4": "A4 A2",
    "A5": "A5 A3 A1", "A6": "A6 A4 A2", "A7": "A7 A5 A3 A1",
    "A8": "A8 A6 A4 A2",
    "B2": "B2 A1", "B3": "B3 A1 A1", "B4": "B4 B2 A1 A1",
    "B5": "B5 B3 A1 A1 A1", "B6": "B6 B4 A1 B2 A1 A1",
    "B7": "B7 B5 A1 B3 A1 A1 A1", "B8": "B8 B6 A1 B4 A1 B2 A1 A1",
    "C2": "B2 A1", "C3": "C3 B2 A1", "C4": "C4 C3 B2 A1",
    "C5": "C5 C4 C3 B2 A1", "C6": "C6 C5 C4 C3 B2 A1",
    "C7": "C7 C6 C5 C4 C3 B2 A1", "C8": "C8 C7 C6 C5 C4 C3 B2 A1",
    "D4": "D4 A1 A1 A1", "D5": "D5 A3 A1 A1", "D6": "D6 D4 A1 A1 A1 A1",
    "D7": "D7 D5 A1 A3 A1 A1", "D8": "D8 D6 A1 D4 A1 A1 A1 A1",
    "E6": "E6 A5 A3 A1", "E7": "E7 D6 A1 D4 A1 A1 A1",
    "E8": "E8 E7 D6 A1 D4 A1 A1 A1", "F4": "F4 C3 B2 A1", "G2": "G2 A1",
    "A2 x B3": "A2 B3 A1 A1", "c^2 x A3 x G2": "A3 G2 A1 A1",
    "A3 x A3 x C2": "A3 A3 B2 A1 A1 A1",
}


def test_subalgebra_rank_is_its_number_of_simple_roots():
    """check_pair counts the simple roots of Delta_k; a dense row reduction
    of all of Delta_k+ gives the same rank on every substem."""
    count = 0
    for text, types in THETA_TYPES.items():
        st = stem_of(shape(text))
        rs = st.rs
        assert " ".join(str(rs.component_type(st.theta[g]))
                        for g in st.elements) == types
        for sub in enumerate_substems(st):
            dk = delta_k(sub)
            rep = check_pair(PairSpec(shape(text), sub.indices, 0))
            assert rep.rank_k_semisimple == len(rs.base(dk)) == \
                dense_rank(rs, [r for r in dk if r.positive]), \
                (text, sub.indices)
            count += 1
    assert count == 354
    # E6 > A5: the substem (2, 3, 4) picks a rank-5 subalgebra
    assert check_pair(spec("E6", [2])).rank_k_semisimple == 5
    assert check_pair(spec("E6")).rank_k_semisimple == 0


def test_pair_checks_raise_under_optimize(monkeypatch):
    """The tiling checks of minimal_elements and the dimension checks of
    complement_data are raises, so they hold under -O as well."""
    script = (
        "import dataclasses\n"
        "import stemhc.pairs as p\n"
        "spec = p.make_pair_spec('A3', (2,))\n"
        "delta_k, check_pair = p.delta_k, p.check_pair\n"
        "p.delta_k = lambda sub: delta_k(sub) | {sub.stem.elements[0]}\n"
        "try:\n"
        "    p.minimal_elements(spec.substem())\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "p.delta_k = delta_k\n"
        "def skewed(s):\n"
        "    rep = check_pair(s)\n"
        "    return dataclasses.replace(rep, dim_diff=rep.dim_diff + 4)\n"
        "p.check_pair = skewed\n"
        "try:\n"
        "    p.complement_data(spec)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n")
    assert optimized_stdout(script).splitlines() == [
        "component tiles miss roots",
        "complement dimension 12, criterion says 16"]
    s = spec("A3", [2])
    real_delta_k = pairs.delta_k
    monkeypatch.setattr(pairs, "delta_k", lambda sub: real_delta_k(sub)
                        | {sub.stem.elements[0]})
    with pytest.raises(AssertionError, match="component tiles miss roots"):
        minimal_elements(s.substem())
    monkeypatch.undo()
    real_check_pair = pairs.check_pair
    monkeypatch.setattr(pairs, "check_pair", lambda t: dataclasses.replace(
        real_check_pair(t), dim_diff=real_check_pair(t).dim_diff + 4))
    with pytest.raises(AssertionError, match="criterion says 16"):
        complement_data(s)
