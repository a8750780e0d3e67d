"""Substems and the numeric pair criterion."""

import pytest

from stemhc.pairs import (
    PairSpec, Substem, check_pair, complement_data, delta_k,
    edm1_equalities, enumerate_substems, gmg2_check, make_pair_spec,
    minimal_elements, subsystem_rank,
    REASON_DEFICIENCY_NEGATIVE, REASON_DIM_NOT_MOD4, REASON_DIM_NOT_POSITIVE,
)
from stemhc.rootsystems import build_cached, parse_shape
from stemhc.stem import stem_of


def shape(text):
    return parse_shape(text)


def spec(text, substem=(), o_k_dim=0):
    return make_pair_spec(shape(text), substem, o_k_dim)


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
            rk = subsystem_rank(st.rs, [r for r in dk if r.positive])
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


def test_complement_requires_verdict_or_force():
    s = spec("A3", [1])
    with pytest.raises(ValueError):
        complement_data(s)
    cd = complement_data(s, force=True)
    assert cd.dim_p == 0 and cd.gamma_p == ()


def test_complement_force_cannot_fake_a_basis():
    # two free stem roots but no central directions at all
    with pytest.raises(ValueError):
        complement_data(spec("B2"), force=True)
    # leftover central block of odd dimension
    with pytest.raises(ValueError):
        complement_data(spec("E6", [2]), force=True)


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
            gmg2_check(s).raise_on_failure()
    assert hits >= 8


def test_gmg2_holds_for_every_substem():
    # the stem properties force this even when the pair itself is rejected
    for text in ["B2", "B3", "C3", "D4", "G2", "F4", "E6"]:
        st = stem_of(shape(text))
        for sub in enumerate_substems(st):
            gmg2_check(sub).raise_on_failure()


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


def test_subsystem_rank_examples():
    rs = build_cached(shape("E6"))
    st = stem_of(shape("E6"))
    dk = delta_k(Substem(st, [2]))
    assert subsystem_rank(rs, [r for r in dk if r.positive]) == 5
    assert subsystem_rank(rs, []) == 0
