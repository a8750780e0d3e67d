import os
from fractions import Fraction

import pytest

from stemhc.chevalley import make_basis, verify_special_sign_identity
from stemhc.rootsystems import (
    Root, RootSystem, SimpleType, parse_shape, shape,
)
from stemhc.stem import (
    compute_stem, hasse_export, phi_plus_set, stem_of, verify_stem_properties,
)
from cascade_oracle import nodes, shape_cascade, wing_count
from construction_oracle import root_sub, root_sum
import euclid_oracle as eo
from partition_oracle import all_partition_stems
from stem_oracle import stem_properties
from test_hcstruct import ATLAS_TYPES
from test_rootsystems import TABLE_SHAPES, optimized_stdout
from test_verifier_reports import load_script


def srank(sh):
    """Twice the stem size; 0 for abelian shapes.  Additive over factors."""
    return stem_of(sh).srank


def ev(*entries):
    """Sparse euclid vector: ev((0,1),(1,1)) = e1+e2 in the ambient dim."""
    return entries


def stem_euclid(t):
    st = stem_of(shape(t))
    return [eo.to_euclid(t, g.coords) for g in st.elements]


def unit(n, entries):
    v = [Fraction(0)] * n
    for i, val in entries:
        v[i] = Fraction(val)
    return tuple(v)


# ---------------------------------------------------------------------------
# frozen stem tables


def test_stem_d5_exact_list():
    got = stem_euclid(SimpleType("D", 5))
    want = [unit(5, [(0, 1), (1, 1)]), unit(5, [(2, 1), (3, 1)]),
            unit(5, [(0, 1), (1, -1)]), unit(5, [(2, 1), (3, -1)])]
    assert got == want


def test_stem_d7_set_order_and_subsystems():
    t = SimpleType("D", 7)
    st = stem_of(shape(t))
    eu = {g: eo.to_euclid(t, g.coords) for g in st.elements}
    sums = {unit(7, [(2 * k, 1), (2 * k + 1, 1)]) for k in range(3)}
    diffs = {unit(7, [(2 * k, 1), (2 * k + 1, -1)]) for k in range(3)}
    assert set(eu.values()) == sums | diffs
    rs = st.rs
    by_eu = {v: g for g, v in eu.items()}
    # Theta types: the sum roots carry the descending chain D7, D5, A3; the
    # difference roots carry single lines
    for k, want in [(0, SimpleType("D", 7)), (1, SimpleType("D", 5)),
                    (2, SimpleType("A", 3))]:
        g = by_eu[unit(7, [(2 * k, 1), (2 * k + 1, 1)])]
        assert rs.component_type(st.theta[g]) == want
    for k in range(3):
        g = by_eu[unit(7, [(2 * k, 1), (2 * k + 1, -1)])]
        assert rs.component_type(st.theta[g]) == SimpleType("A", 1)
    # order relation: sum roots form a chain; sum k sits under diff j iff j >= k
    s = [by_eu[unit(7, [(2 * k, 1), (2 * k + 1, 1)])] for k in range(3)]
    d = [by_eu[unit(7, [(2 * k, 1), (2 * k + 1, -1)])] for k in range(3)]
    for k in range(2):
        assert st.precedes(s[k], s[k + 1])
    for k in range(3):
        for j in range(3):
            assert st.precedes(s[k], d[j]) == (j >= k)
    for j in range(3):
        for jj in range(3):
            if j != jj:
                assert not st.precedes(d[j], d[jj])
    # the element list is a linear extension with maximal roots first
    for g in st.elements:
        for h in st.elements:
            if st.precedes(g, h):
                assert st.index(g) < st.index(h)
    assert st.elements[0] == by_eu[unit(7, [(0, 1), (1, 1)])]


def test_stem_e6_chain():
    t = SimpleType("E", 6)
    st = stem_of(shape(t))
    assert len(st.elements) == 4
    assert st.srank == 8
    rs = st.rs
    types = [rs.component_type(st.theta[g]) for g in st.elements]
    assert types == [SimpleType("E", 6), SimpleType("A", 5),
                     SimpleType("A", 3), SimpleType("A", 1)]
    for i in range(3):
        assert st.precedes(st.elements[i], st.elements[i + 1])


@pytest.mark.parametrize("n", range(1, 11))
def test_stem_a_series(n):
    t = SimpleType("A", n)
    st = stem_of(shape(t))
    d = (n + 1) // 2
    assert len(st.elements) == d
    rs = st.rs
    for k, g in enumerate(st.elements, 1):
        assert rs.component_type(st.theta[g]) == SimpleType("A", n - 2 * k + 2)
        # gamma_k = e_k - e_{n+2-k}
        assert eo.to_euclid(t, g.coords) == unit(
            n + 1, [(k - 1, 1), (n + 1 - k, -1)])
    for i in range(d - 1):
        assert st.precedes(st.elements[i], st.elements[i + 1])


def test_stem_b2_and_g2():
    stb = stem_of(shape(SimpleType("B", 2)))
    tb = SimpleType("B", 2)
    assert [eo.to_euclid(tb, g.coords) for g in stb.elements] == \
        [unit(2, [(0, 1), (1, 1)]), unit(2, [(0, 1), (1, -1)])]
    stg = stem_of(shape(SimpleType("G", 2)))
    assert [g.coords for g in stg.elements] == [(3, 2), (1, 0)]


def test_stem_c_series():
    t = SimpleType("C", 3)
    st = stem_of(shape(t))
    assert [eo.to_euclid(t, g.coords) for g in st.elements] == \
        [unit(3, [(0, 2)]), unit(3, [(1, 2)]), unit(3, [(2, 2)])]


# ---------------------------------------------------------------------------
# srank identities


def test_srank_equals_twice_rank_families():
    for text in ["B2", "B3", "B4", "B5", "B6", "B7", "B8",
                 "C2", "C3", "C4", "C5", "C6", "C7", "C8",
                 "D4", "D6", "D8", "E7", "E8", "F4", "G2"]:
        s = parse_shape(text)
        assert srank(s) == 2 * s.rank, text


def test_srank_odd_d_and_e6():
    assert srank(parse_shape("D5")) == 8
    assert srank(parse_shape("D7")) == 12
    assert srank(parse_shape("E6")) == 8


def test_srank_additive_and_abelian():
    assert srank(parse_shape("c^3")) == 0
    assert srank(parse_shape("0")) == 0
    assert srank(parse_shape("A2")) == 2
    assert srank(parse_shape("A2 x A2")) == 4
    assert srank(parse_shape("c^2 x G2")) == 4
    assert srank(parse_shape("A3 x B2")) == 4 + 4


# ---------------------------------------------------------------------------
# wings


def test_phi_plus_d4_example():
    t = SimpleType("D", 4)
    st = stem_of(shape(t))
    g = st.elements[0]
    assert eo.to_euclid(t, g.coords) == unit(4, [(0, 1), (1, 1)])
    wings = {eo.to_euclid(t, b.coords) for b in phi_plus_set(st.rs, g)}
    want = set()
    for i in (0, 1):
        for j in (2, 3):
            want.add(unit(4, [(i, 1), (j, 1)]))
            want.add(unit(4, [(i, 1), (j, -1)]))
    assert wings == want
    assert len(wings) == 8


def test_phi_plus_requires_positive_root():
    st = stem_of(shape(SimpleType("A", 2)))
    rs = st.rs
    with pytest.raises(ValueError):
        phi_plus_set(rs, -rs.positives[0])
    with pytest.raises(ValueError):
        phi_plus_set(rs, Root(0, (5, 5)))


@pytest.mark.parametrize("text", TABLE_SHAPES)
def test_phi_plus_set_matches_its_definition(text):
    """Phi_zeta^+ = {b in Delta^+ : zeta - b in Delta^+}, written with
    coordinate differences, for every positive root zeta."""
    rs = RootSystem(parse_shape(text))
    for zeta in rs.positives:
        want = set()
        for b in rs.positives:
            d = root_sub(zeta, b)
            if d in rs.root_set and d.positive:
                want.add(b)
        assert phi_plus_set(rs, zeta) == want


def test_phi_plus_even_cardinality_on_stem():
    for text in ["A4", "B3", "C4", "D5", "F4", "G2", "E6"]:
        st = stem_of(parse_shape(text))
        for g in st.elements:
            assert len(st.phi[g]) % 2 == 0


# ---------------------------------------------------------------------------
# properties and uniqueness


@pytest.mark.parametrize("text", ["A1", "A2", "A3", "A4", "A5", "B2", "B3",
                                  "B4", "C2", "C3", "C4", "D4", "D5", "F4",
                                  "G2", "E6", "A2 x A2", "c^2 x A3 x B2"])
def test_verify_stem_properties(text):
    st = stem_of(parse_shape(text))
    rep = verify_stem_properties(st)
    assert rep.ok, rep.summary()


def component_stem_item(st):
    """(checked, violations) of the component-stem item of a stem."""
    item, = [it for it in verify_stem_properties(st).items
             if it.name == "component stems agree with the order filter"]
    return item.checked, item.violations


def test_component_stem_item_under_corruption():
    """A theta_g replaced by the component one stage deeper fails the item
    at g alone, as re-peeling every theta_g shows; a wrong stage number
    leaves it passing, as re-peeling never reads the stages."""
    st = compute_stem(RootSystem(parse_shape("C4")))
    assert component_stem_item(st) == (4, [])
    g2, g3 = st.elements[1:3]
    st.theta[g2] = st.theta[g3]
    assert component_stem_item(st) == (
        4, ["stem of component of 0:(0,2,2,1) mismatches"])
    st = compute_stem(RootSystem(parse_shape("E6")))
    st.stage_of[st.elements[2]] = 1
    assert component_stem_item(st) == (4, [])


def test_stem_items_under_a_moved_wing():
    """The lowest wing of g1 moved into the block of g2, on C4: six items
    fail, each with its exact count and violations, in order."""
    st = compute_stem(RootSystem(parse_shape("C4")))
    g1, g2 = st.elements[:2]
    low = min(st.phi[g1], key=Root.key)
    assert (str(g1), str(g2), str(low)) == \
        ("0:(2,2,2,1)", "0:(0,2,2,1)", "0:(1,0,0,0)")
    st.phi[g1] = st.phi[g1] - {low}
    st.phi[g2] = st.phi[g2] | {low}
    got = [(it.name, it.checked, it.violation_count, it.violations)
           for it in verify_stem_properties(st).items]
    assert got == [
        ("wing blocks partition the positive system", 16, 2,
         ["odd wing count at 0:(2,2,2,1)", "odd wing count at 0:(0,2,2,1)"]),
        ("stem roots are strongly orthogonal", 6, 0, []),
        ("deeper blocks bracket into the shallower wings", 46, 11,
         ["0:(1,1,1,1) +- 0:(0,1,1,1) escapes wings of 0:(2,2,2,1)",
          "0:(1,1,1,1) +- 0:(1,0,0,0) escapes wings of 0:(2,2,2,1)",
          "0:(1,1,2,1) +- 0:(1,0,0,0) escapes wings of 0:(2,2,2,1)",
          "0:(1,1,2,1) +- 0:(0,1,2,1) escapes wings of 0:(2,2,2,1)",
          "0:(1,1,0,0) +- 0:(0,1,0,0) escapes wings of 0:(2,2,2,1)",
          "0:(1,1,0,0) +- 0:(1,0,0,0) escapes wings of 0:(2,2,2,1)",
          "0:(1,2,2,1) +- 0:(0,2,2,1) escapes wings of 0:(2,2,2,1)",
          "0:(1,2,2,1) +- 0:(1,0,0,0) escapes wings of 0:(2,2,2,1)",
          "0:(1,2,2,1) +- 0:(1,0,0,0) escapes wings of 0:(2,2,2,1)",
          "0:(1,1,1,0) +- 0:(0,1,1,0) escapes wings of 0:(2,2,2,1)",
          "0:(1,1,1,0) +- 0:(1,0,0,0) escapes wings of 0:(2,2,2,1)"]),
        ("sums within a block land on its stem root", 10, 5,
         ["0:(0,1,0,0) + 0:(1,0,0,0) = 0:(1,1,0,0) inside block of "
          "0:(0,2,2,1)",
          "0:(1,0,0,0) + 0:(0,1,1,0) = 0:(1,1,1,0) inside block of "
          "0:(0,2,2,1)",
          "0:(1,0,0,0) + 0:(0,1,1,1) = 0:(1,1,1,1) inside block of "
          "0:(0,2,2,1)",
          "0:(1,0,0,0) + 0:(0,1,2,1) = 0:(1,1,2,1) inside block of "
          "0:(0,2,2,1)",
          "0:(1,0,0,0) + 0:(0,2,2,1) = 0:(1,2,2,1) inside block of "
          "0:(0,2,2,1)"]),
        ("deeper blocks are orthogonal to shallower stem roots", 15, 1,
         ["0:(1,0,0,0) sees shallower stem root 0:(2,2,2,1)"]),
        ("incomparable blocks never sum to roots", 0, 0, []),
        ("wings descend through their stem root", 12, 3,
         ["0:(1,0,0,0) - 0:(0,2,2,1) is not a negative root",
          "0:(1,0,0,0) + 0:(0,2,2,1) is a root",
          "0:(1,0,0,0) pairs nonpositively with 0:(0,2,2,1)"]),
        ("every stem root dominates a maximal root", 4, 0, []),
        ("deeper blocks are differences within shallower wings", 15, 2,
         ["0:(0,2,2,1) is not a difference of wings of 0:(2,2,2,1)",
          "0:(1,0,0,0) is not a difference of wings of 0:(2,2,2,1)"]),
        ("component stems agree with the order filter", 4, 0, []),
    ]


def item_rows(rep):
    """Every item of a report, as (name, checked, ok, violation_count,
    violations)."""
    return [(it.name, it.checked, it.ok, it.violation_count, it.violations)
            for it in rep.items]


# the atlas types and three product shapes
ORACLE_SHAPES = ATLAS_TYPES + ["A2 x A2", "c^1 x B3", "A3 x G2"]


@pytest.mark.parametrize("text", ORACLE_SHAPES)
def test_stem_checks_match_the_root_keyed_oracle(text):
    st = stem_of(parse_shape(text))
    assert item_rows(verify_stem_properties(st)) == \
        item_rows(stem_properties(st))


def test_stem_checks_match_the_oracle_on_corrupted_stems():
    """Every item of every corrupted stem that verifier_reports.py prints,
    the A2 x A2 ones included, whose wings or components are moved across
    the two components, where the root codes of one component repeat
    those of the other."""
    vr = load_script()
    count = 0
    for text in vr.STEM_CORRUPTION_TYPES:
        for label, st in vr.stem_corruptions(text):
            assert item_rows(verify_stem_properties(st)) == \
                item_rows(stem_properties(st)), (text, label)
            count += 1
    assert count == 157


def other_corruptions():
    """(label, stem) of corrupted stems beyond those of verifier_reports.py:
    those of A3 x A3, whose components have stem roots one stage deeper,
    and, on C4, the first stem root or its opposite put among the wings of
    the second."""
    yield from load_script().stem_corruptions("A3 x A3")
    for sign in (1, -1):
        st = compute_stem(RootSystem(parse_shape("C4")))
        g1, g2 = st.elements[:2]
        extra = g1 if sign > 0 else -g1
        st.phi[g2] = st.phi[g2] | {extra}
        yield "C4 %s put among the wings of %s" % (extra, g2), st


def test_stem_checks_match_the_oracle_on_other_corrupted_stems():
    count = 0
    for label, st in other_corruptions():
        got = item_rows(verify_stem_properties(st))
        assert got == item_rows(stem_properties(st)), label
        assert not all(ok for _, _, ok, _, _ in got), label
        count += 1
    assert count == 22


def stem_tree(st, g):
    """(component type, wing count, the sorted trees of the stem roots one
    stage deeper inside theta_g) of a stem root g."""
    deeper = [e for e in st.elements
              if st.stage_of[e] == st.stage_of[g] + 1 and st.precedes(g, e)]
    return (str(st.rs.component_type(st.theta[g])), len(st.phi[g]),
            tuple(sorted(stem_tree(st, e) for e in deeper)))


@pytest.mark.parametrize("text", ORACLE_SHAPES)
def test_stem_is_the_cascade(text):
    """The stem's stages, successor counts and srank are those of Kostant's
    cascade, taken from the diagram types alone; so is the whole tree of
    component types and wing counts."""
    sh = parse_shape(text)
    st = stem_of(sh)
    trees = shape_cascade(sh)
    got = [(st.stage_of[g], len(stem_tree(st, g)[2])) for g in st.elements]
    assert sorted(got) == sorted(nodes(trees))
    assert st.srank == 2 * len(nodes(trees))
    assert sorted(stem_tree(st, g) for g in st.minimal_roots()) == trees


@pytest.mark.parametrize("text", ORACLE_SHAPES)
def test_wing_count_is_twice_the_dual_coxeter_number_less_four(text):
    st = stem_of(parse_shape(text))
    for g in st.elements:
        t = st.rs.component_type(st.theta[g])
        assert len(st.phi[g]) == wing_count(t.family, t.rank), g


@pytest.mark.parametrize("text", ["A1", "A2", "A3", "A4", "A5", "B2", "B3",
                                  "B4", "C2", "C3", "C4", "D4", "D5", "G2"])
def test_partition_stem_is_unique(text):
    rs = RootSystem(parse_shape(text))
    assert len(rs.positives) <= 20
    sols = all_partition_stems(rs)
    st = compute_stem(rs)
    assert sols == [frozenset(st.elements)]


def test_linear_extension_property():
    for text in ["A6", "B5", "C5", "D6", "E6", "F4", "A3 x D4"]:
        st = stem_of(parse_shape(text))
        for g in st.elements:
            for h in st.elements:
                if st.precedes(g, h):
                    assert st.index(g) < st.index(h)
        for g in st.minimal_roots():
            assert st.stage_of[g] == 0


def test_hasse_export_e6_is_a_path():
    st = stem_of(parse_shape("E6"))
    dot = hasse_export(st)
    assert dot.startswith("digraph stem {")
    assert "g1 -> g2;" in dot and "g2 -> g3;" in dot and "g3 -> g4;" in dot
    assert "g1 -> g3;" not in dot
    assert dot.count("->") == 3


def test_hasse_export_d5_shape():
    st = stem_of(parse_shape("D5"))
    dot = hasse_export(st)
    edges = {line.strip().rstrip(";") for line in dot.splitlines()
             if "->" in line}
    assert edges == {"g1 -> g2", "g1 -> g3", "g2 -> g4"}


# ---------------------------------------------------------------------------
# wing sign products (needs the structure constants)


@pytest.mark.parametrize("text", ["A3", "A4", "B3", "C3", "D4", "D5", "F4",
                                  "G2", "E6"])
def test_special_sign_identity(text):
    s = parse_shape(text)
    cb = make_basis(s)
    st = stem_of(s)
    rep = verify_special_sign_identity(cb, st)
    assert rep.ok, rep.summary()
    assert rep.total_checked == sum(len(st.phi[g]) for g in st.elements) // 2


def test_compute_stem_rejects_a_subset_that_is_not_closed():
    # the short roots of B2: e2 and e1 = a1 + a2 are orthogonal, so each
    # sits in its own component, but their sum a1 + 2 a2 is a root
    rs = RootSystem(parse_shape("B2"))
    e2, e1 = Root(0, (0, 1)), Root(0, (1, 1))
    assert root_sum(e1, e2) in rs.roots
    with pytest.raises(ValueError):
        compute_stem(rs, {e1, -e1, e2, -e2})



def test_compute_stem_rejects_wings_outside_the_subset():
    # {e1, -e1} in B2 is closed, but the wings a1, a2 of e1 = a1 + a2 lie
    # outside it
    e1 = Root(0, (1, 1))
    with pytest.raises(ValueError):
        compute_stem(RootSystem(parse_shape("B2")), {e1, -e1})
    # and the check survives `python -O`
    script = ("from stemhc.rootsystems import Root, RootSystem, parse_shape\n"
              "from stemhc.stem import compute_stem\n"
              "e1 = Root(0, (1, 1))\n"
              "try:\n"
              "    compute_stem(RootSystem(parse_shape('B2')), {e1, -e1})\n"
              "except ValueError:\n"
              "    print('ValueError')\n")
    assert optimized_stdout(script).strip() == "ValueError"


def test_compute_stem_rejects_an_asymmetric_subset():
    # a lone root is closed; all roots but one are not closed
    rs = RootSystem(parse_shape("A2"))
    a1 = rs.positives[0]
    for sub in ({a1}, set(rs.roots) - {-a1}):
        with pytest.raises(ValueError):
            compute_stem(rs, sub)
    script = ("from stemhc.rootsystems import RootSystem, parse_shape\n"
              "from stemhc.stem import compute_stem\n"
              "rs = RootSystem(parse_shape('A2'))\n"
              "a1 = rs.positives[0]\n"
              "for sub in ({a1}, set(rs.roots) - {-a1}):\n"
              "    try:\n"
              "        compute_stem(rs, sub)\n"
              "    except ValueError:\n"
              "        print('ValueError')\n")
    assert optimized_stdout(script).split() == ["ValueError"] * 2


def peel_overlapping_blocks():
    # every component comes back twice, so its highest root is peeled twice
    rs = RootSystem(parse_shape("A2"))
    comps = rs.irreducible_components
    rs.irreducible_components = lambda sub: comps(sub) * 2
    compute_stem(rs)


def peel_missing_a_root():
    # the positive system claims one root more than the peeling can cover
    rs = RootSystem(parse_shape("A2"))
    rs.positives = rs.positives + [Root(0, (5, 5))]
    compute_stem(rs)


def test_compute_stem_partition_checks_raise():
    """The wing-block partition of a full stem is checked by explicit
    raises, so the checks also hold under `python -O`."""
    for breaker, msg in ((peel_overlapping_blocks, "wing blocks overlap"),
                         (peel_missing_a_root, "wing blocks miss roots")):
        with pytest.raises(AssertionError, match=msg):
            breaker()
    script = ("import sys\n"
              "sys.path.insert(0, %r)\n"
              "import test_stem\n"
              "for breaker in (test_stem.peel_overlapping_blocks,\n"
              "                test_stem.peel_missing_a_root):\n"
              "    try:\n"
              "        breaker()\n"
              "    except AssertionError as exc:\n"
              "        print(exc)\n" % os.path.dirname(__file__))
    assert optimized_stdout(script).splitlines() == [
        "wing blocks overlap", "wing blocks miss roots"]
