import ast
import os
import subprocess
import sys

import pytest

import stemhc
from stemhc import chevalley, rootsystems, stem
from stemhc.rootsystems import (
    Root, RootSystem, SimpleType, build_cached, parse_shape, shape,
    simple_type,
)
from stemhc.pairs import delta_k, enumerate_substems
from stemhc.stem import compute_stem
from construction_oracle import root_sum
import euclid_oracle as eo
import subset_oracle


ALL_SMALL = [
    SimpleType("A", 1), SimpleType("A", 2), SimpleType("A", 3),
    SimpleType("A", 4), SimpleType("B", 2), SimpleType("B", 3),
    SimpleType("B", 4), SimpleType("C", 2), SimpleType("C", 3),
    SimpleType("C", 4), SimpleType("D", 4), SimpleType("D", 5),
    SimpleType("F", 4), SimpleType("G", 2),
]
E_SERIES = [SimpleType("E", 6), SimpleType("E", 7), SimpleType("E", 8)]
# every small type, the E series, a center and two simple factors
TABLE_SHAPES = ([str(t) for t in ALL_SMALL + E_SERIES]
                + ["c^4 x A2", "A2 x B2"])


def optimized_stdout(script):
    """What `script` prints under `python -O`, which strips asserts."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(stemhc.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


def rs_of(t):
    return RootSystem(shape(t))


# ---------------------------------------------------------------------------
# shapes


def test_simple_type_validation():
    simple_type("A", 1)
    simple_type("E", 8)
    for fam, rank in [("A", 0), ("B", 1), ("C", 1), ("E", 5), ("E", 9),
                      ("F", 3), ("G", 3), ("Z", 2)]:
        with pytest.raises(ValueError):
            simple_type(fam, rank)


def test_d2_d3_rejected_with_isomorphism_hint():
    with pytest.raises(ValueError, match="A1 x A1"):
        simple_type("D", 2)
    with pytest.raises(ValueError, match="A3"):
        simple_type("D", 3)


def test_parse_shape():
    s = parse_shape("c^2 x A3 x D5")
    assert s.center_dim == 2
    assert s.simples == (SimpleType("A", 3), SimpleType("D", 5))
    assert s.rank == 10
    assert parse_shape("G2").simples == (SimpleType("G", 2),)
    assert parse_shape("c x c x A1").center_dim == 2
    assert parse_shape("c^3").rank == 3
    assert parse_shape("0").rank == 0
    assert str(parse_shape("c^2 x A3 x D5")) == "c^2 x A3 x D5"
    assert parse_shape("c^0 x A1") == parse_shape("A1")
    # exponents and ranks are ASCII decimal numerals, with no sign
    for bad in ["c^x", "A", "H4", "A3 x", "D3", "c^-1 x c^2 x A1", "c^+2",
                "c^1_0", "c^ 2", "c^\u0662", "A\u0663", "A\u00b2", "A+3",
                "A1_0"]:
        with pytest.raises(ValueError):
            parse_shape(bad)


# ---------------------------------------------------------------------------
# root sets against the Euclidean oracle


@pytest.mark.parametrize("t", ALL_SMALL + [SimpleType("E", 6)],
                         ids=str)
def test_roots_match_euclidean_realization(t):
    rs = rs_of(t)
    ours = {eo.to_euclid(t, r.coords) for r in rs.roots}
    assert ours == eo.euclid_roots(t)
    assert len(rs.roots) == len(ours)          # conversion is injective


@pytest.mark.parametrize("t", [SimpleType("E", 7), SimpleType("E", 8)],
                         ids=str)
def test_large_e_series_counts(t):
    rs = rs_of(t)
    ours = {eo.to_euclid(t, r.coords) for r in rs.roots}
    assert ours == eo.euclid_roots(t)


def doubled_euclid(t, rs):
    """Twice each root's Euclidean vector: integers, since E and F have
    halves; their dot products are 4 times the Euclidean ones."""
    return {r: tuple(int(2 * x) for x in eo.to_euclid(t, r.coords))
            for r in rs.roots}


@pytest.mark.parametrize("t", ALL_SMALL + E_SERIES, ids=str)
def test_sym_form_matches_euclidean_dot(t):
    rs = rs_of(t)
    vec = doubled_euclid(t, rs)
    for a in rs.roots:
        for b in rs.roots:
            assert 4 * rs.sym_form(a, b) == eo.dot(vec[a], vec[b])


@pytest.mark.parametrize("t", ALL_SMALL + E_SERIES, ids=str)
def test_cartan_int_matches_euclidean_ratio(t):
    rs = rs_of(t)
    vec = doubled_euclid(t, rs)
    for a in rs.roots:
        for b in rs.roots:
            assert (rs.cartan_int(a, b) * eo.dot(vec[b], vec[b])
                    == 2 * eo.dot(vec[a], vec[b]))


# ---------------------------------------------------------------------------
# Cartan integers and strings


@pytest.mark.parametrize("t", ALL_SMALL, ids=str)
def test_cartan_int_vs_root_string(t):
    rs = rs_of(t)
    roots = list(rs.roots)
    for a in roots:
        for b in roots:
            if a == b or a == -b:
                continue
            c = rs.cartan_int(a, b)
            assert c in (-3, -2, -1, 0, 1, 2, 3)
            assert c * rs.cartan_int(b, a) in (0, 1, 2, 3)
            p, q = rs.root_string(a, b)
            assert p <= 0 <= q
            assert c == -(p + q)
            # string membership really is an interval
            for nlift in range(p, q + 1):
                v = Root(a.comp, tuple(x + nlift * y
                                       for x, y in zip(a.coords, b.coords)))
                assert v in rs.root_set


def test_root_string_errors():
    rs = rs_of(SimpleType("A", 2))
    a = rs.positives[0]
    with pytest.raises(ValueError):
        rs.root_string(a, a)
    with pytest.raises(ValueError):
        rs.root_string(a, -a)
    with pytest.raises(ValueError):
        rs.cartan_int(a, Root(0, (5, 5)))


def test_cross_component_orthogonality():
    rs = RootSystem(parse_shape("A1 x A1"))
    a = [r for r in rs.positives if r.comp == 0][0]
    b = [r for r in rs.positives if r.comp == 1][0]
    assert rs.cartan_int(a, b) == 0
    assert rs.root_string(a, b) == (0, 0)
    assert rs.sym_form(a, b) == 0


# ---------------------------------------------------------------------------
# named Cartan matrices (Bourbaki)


def test_cartan_matrix_literals():
    from stemhc.rootsystems import cartan_matrix
    assert cartan_matrix(SimpleType("G", 2)) == [[2, -1], [-3, 2]]
    assert cartan_matrix(SimpleType("F", 4)) == [
        [2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    assert cartan_matrix(SimpleType("B", 3)) == [
        [2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    assert cartan_matrix(SimpleType("C", 3)) == [
        [2, -1, 0], [-1, 2, -1], [0, -2, 2]]
    assert cartan_matrix(SimpleType("D", 4)) == [
        [2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def highest_roots(rs, subset):
    """One highest root per irreducible component of a closed symmetric
    subsystem, in component order."""
    sub = set(subset)
    sym = sub | {-a for a in sub}
    if not rs.is_closed(sym):
        raise ValueError("subset is not closed")
    return [rs.highest_root(comp) for comp in rs.irreducible_components(sym)]


def test_highest_roots_of_full_systems():
    cases = {
        SimpleType("A", 3): (1, 1, 1),
        SimpleType("B", 3): (1, 2, 2),
        SimpleType("C", 3): (2, 2, 1),
        SimpleType("D", 4): (1, 2, 1, 1),
        SimpleType("F", 4): (2, 3, 4, 2),
        SimpleType("G", 2): (3, 2),
        SimpleType("E", 6): (1, 2, 2, 3, 2, 1),
    }
    for t, coords in cases.items():
        rs = rs_of(t)
        tops = highest_roots(rs, set(rs.roots))
        assert tops == [Root(0, coords)]


# ---------------------------------------------------------------------------
# subsets


def test_is_closed_and_components():
    rs = rs_of(SimpleType("A", 3))
    a1, a2, a3 = rs.simple_roots(0)
    sub = {a1, -a1, a3, -a3}
    assert rs.is_closed(sub)
    comps = rs.irreducible_components(sub)
    assert len(comps) == 2
    # canonical component order sorts by minimal root in (height, lex) order
    assert highest_roots(rs, sub) == [a3, a1]
    assert not rs.is_closed({a1, a2, -a1, -a2})   # misses a1+a2
    with pytest.raises(ValueError):
        rs.irreducible_components({a1})
    with pytest.raises(ValueError):
        highest_roots(rs, {a1, a2, -a1, -a2})


def test_is_closed_rejects_a_non_root():
    """Also under `python -O`, which strips asserts; compute_stem passes the
    error on."""
    rs = rs_of(SimpleType("A", 2))
    bogus = {Root(0, (5, 5)), Root(0, (-5, -5))}
    other = {Root(1, (1, 0)), Root(1, (-1, 0))}   # A2 has no component 1
    for sub in (bogus, other, bogus | set(rs.roots)):
        with pytest.raises(ValueError, match="not a root"):
            rs.is_closed(sub)
        with pytest.raises(ValueError, match="not a root"):
            compute_stem(rs, sub)
    script = ("from stemhc.rootsystems import Root, RootSystem, parse_shape\n"
              "from stemhc.stem import compute_stem\n"
              "rs = RootSystem(parse_shape('A2'))\n"
              "bogus = {Root(0, (5, 5)), Root(0, (-5, -5))}\n"
              "for check in (rs.is_closed, lambda s: compute_stem(rs, s)):\n"
              "    try:\n"
              "        check(bogus)\n"
              "    except ValueError as exc:\n"
              "        print(exc)\n")
    lines = optimized_stdout(script).splitlines()
    assert len(lines) == 2
    assert all(line.startswith("not a root: 0:(") for line in lines)


@pytest.mark.parametrize("text", TABLE_SHAPES)
def test_sums_match_coordinate_addition(text):
    """rs.sum against root_sum and root_set on every ordered pair of roots,
    those of two components and b = -a included: the very Root object of
    rs.roots where a + b is a root, None elsewhere, and KeyError when an
    argument is not a root."""
    rs = RootSystem(parse_shape(text))
    stored = {r: r for r in rs.roots}
    for a in rs.roots:
        assert rs.sum(a, -a) is None
        for b in rs.roots:
            s = root_sum(a, b)
            if s in rs.root_set:
                assert rs.sum(a, b) is stored[s]
            else:
                assert rs.sum(a, b) is None
    a = rs.roots[0]
    for bogus in (Root(a.comp, tuple(2 * c for c in a.coords)),
                  Root(len(rs.shape.simples), a.coords)):
        for args in ((a, bogus), (bogus, a), (bogus, bogus)):
            with pytest.raises(KeyError):
                rs.sum(*args)


@pytest.mark.parametrize("text", TABLE_SHAPES)
def test_index_rows_match_the_sum_table(text):
    """The numbering puts the positive roots first, in `Root.key` order, and
    the opposite of index i at i + P; the index row of i holds, by index and
    in the order of j, the sums roots[i] + roots[j] = rs.sum(roots[i],
    roots[j]) with j > i."""
    rs = RootSystem(parse_shape(text))
    P = len(rs.positives)
    assert list(rs.roots[:P]) == sorted(rs.positives, key=Root.key)
    assert all(rs.index[r] == i for i, r in enumerate(rs.roots))
    assert all(rs.roots[i + P] == -rs.roots[i] for i in range(P))
    for i, a in enumerate(rs.roots):
        want = [(j, rs.index[rs.sum(a, b)])
                for j, b in enumerate(rs.roots[i + 1:], i + 1)
                if rs.sum(a, b) is not None]
        row = rs._sum_rows[i]
        assert list(zip(row[::2], row[1::2])) == sorted(want)


@pytest.mark.parametrize("text", TABLE_SHAPES)
def test_decompositions_match_coordinate_addition(text):
    """decompositions(i) lists the pairs a < b of positive root indices
    with roots[a] + roots[b] = roots[i], in the order of a, against
    root_sum on every pair of positive roots; a negative root has none."""
    rs = RootSystem(parse_shape(text))
    P = len(rs.positives)
    want = {}
    for a in range(P):
        for b in range(a + 1, P):
            s = root_sum(rs.roots[a], rs.roots[b])
            if s in rs.root_set:
                want.setdefault(rs.index[s], []).append((a, b))
    for i in range(2 * P):
        assert rs.decompositions(i) == want.get(i, [])


def euclid_components(t, subset):
    """Connected components of the Euclidean non-orthogonality graph."""
    vec = {r: eo.to_euclid(t, r.coords) for r in subset}
    comps = []
    for r in subset:
        touching = [c for c in comps
                    if any(eo.dot(vec[r], vec[x]) != 0 for x in c)]
        merged = {r}.union(*touching)
        comps = [c for c in comps if c not in touching] + [merged]
    return {frozenset(c) for c in comps}


def peeling_remainders(rs):
    """The full root set, then what is left at each peeling stage: the union
    of the components peeled at that stage."""
    st = compute_stem(rs)
    out = [set(rs.roots)]
    for stage in sorted(set(st.stage_of.values())):
        out.append(set().union(*(st.theta[g] for g in st.elements
                                 if st.stage_of[g] == stage)))
    return st, out


def line_pairs(rs):
    pos = rs.positives
    return [{a, -a, b, -b} for i, a in enumerate(pos) for b in pos[i + 1:]]


@pytest.mark.parametrize("t", ALL_SMALL + [SimpleType("E", 6)], ids=str)
def test_components_match_euclidean_orthogonality(t):
    rs = rs_of(t)
    # every pair of root lines too, so the relation itself is pinned down
    for sub in peeling_remainders(rs)[1] + line_pairs(rs):
        comps = rs.irreducible_components(sub)
        assert len(set(comps)) == len(comps)
        assert set(comps) == euclid_components(t, sub)


@pytest.mark.parametrize("t", ALL_SMALL + [SimpleType("E", 6)], ids=str)
def test_is_closed_matches_euclidean_sums(t):
    rs = rs_of(t)

    def twice(v):                 # halves occur in E and F; this clears them
        return tuple(int(2 * x) for x in v)

    roots = {twice(v) for v in eo.euclid_roots(t)}

    def euclid_closed(sub):
        vecs = {twice(eo.to_euclid(t, r.coords)) for r in sub}
        sums = {tuple(x + y for x, y in zip(u, v)) for u in vecs for v in vecs}
        return not (sums & roots) - vecs

    st, remainders = peeling_remainders(rs)
    # remainders are closed; dropping the line of a peeled stem root from
    # its remainder breaks closure unless that component is an A1
    subsets = remainders + line_pairs(rs)
    for rem in remainders[1:]:
        subsets += [rem - {g, -g} for g in st.elements if g in rem]
    verdicts = [rs.is_closed(sub) for sub in subsets]
    assert verdicts == [euclid_closed(sub) for sub in subsets]
    if t.rank > 1:                # A1 has no symmetric non-closed subset
        assert True in verdicts and False in verdicts


@pytest.mark.parametrize("t", ALL_SMALL + [SimpleType("E", 6)], ids=str)
def test_component_type_of_full_system(t):
    rs = rs_of(t)
    got = rs.component_type(set(rs.roots))
    if t == SimpleType("C", 2):
        assert got == SimpleType("B", 2)
    else:
        assert got == t


@pytest.mark.parametrize("text", TABLE_SHAPES)
def test_base_of_the_full_system_is_its_simple_roots(text):
    rs = RootSystem(parse_shape(text))
    simples = [r for c in range(len(rs.shape.simples))
               for r in rs.simple_roots(c)]
    assert rs.base(rs.roots) == sorted(simples, key=Root.key)
    assert rs.base([]) == []


def test_base_of_proper_subsystems():
    # inside B3 the long roots {+-e_i +- e_j} form a D3 = A3, whose simple
    # roots are not all simple in B3
    rs = rs_of(SimpleType("B", 3))
    longs = {r for r in rs.roots if rs.sym_form(r, r) == 2}
    base = rs.base(longs)
    assert len(base) == 3 and base == sorted(base, key=Root.key)
    assert all(r in longs and r.positive for r in base)
    assert not set(base) <= set(rs.simple_roots(0))
    # adding base roots one at a time reaches every positive long root
    reached = set(base)
    frontier = list(base)
    while frontier:
        a = frontier.pop()
        for b in base:
            s = rs.sum(a, b)
            if s in longs and s not in reached:
                reached.add(s)
                frontier.append(s)
    assert reached == {r for r in longs if r.positive}


def test_component_type_of_proper_subsystems():
    # inside A3: single root lines and an A2
    rs = rs_of(SimpleType("A", 3))
    a1, a2, a3 = rs.simple_roots(0)
    assert rs.component_type({a1, -a1}) == SimpleType("A", 1)
    a12 = Root(0, (1, 1, 0))
    assert rs.component_type({a1, a2, a12, -a1, -a2, -a12}) == SimpleType("A", 2)
    # inside B3: the long subsystem {+-e_i +- e_j} is a D3 ~ A3
    rsb = rs_of(SimpleType("B", 3))
    longs = {r for r in rsb.roots if rsb.sym_form(r, r) == 2}
    assert rsb.component_type(longs) == SimpleType("A", 3)
    # inside G2: the long roots form an A2
    rsg = rs_of(SimpleType("G", 2))
    longg = {r for r in rsg.roots if rsg.sym_form(r, r) == 6}
    assert rsg.component_type(longg) == SimpleType("A", 2)



def outcome(f, *args):
    """f(*args), or the type and text of what it raised."""
    try:
        return f(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc).__name__, str(exc)


def oracle_subsets(rs):
    """Every peeling remainder, every pair of root lines and every Delta_k
    of a substem: closed and non-closed, irreducible and not."""
    st, remainders = peeling_remainders(rs)
    return (remainders + line_pairs(rs)
            + [set(delta_k(sub)) for sub in enumerate_substems(st)])


@pytest.mark.parametrize("text", [str(t) for t in ALL_SMALL] + [
    "E6", "A2 x B3", "B2 x B2", "c^1 x G2 x A1"])
def test_subset_primitives_match_the_root_keyed_oracle(text):
    """Closure, components, highest roots and bases, which run on root
    indices, against the Root-keyed versions of `subset_oracle`; the shapes
    with several factors make line pairs across components."""
    rs = RootSystem(parse_shape(text))
    for sub in oracle_subsets(rs):
        assert rs.is_closed(sub) == subset_oracle.is_closed(rs, sub)
        assert rs.base(sub) == subset_oracle.base(rs, sub)
        comps = rs.irreducible_components(sub)
        assert comps == subset_oracle.irreducible_components(rs, sub)
        for comp in comps:
            assert outcome(rs.highest_root, comp) == \
                outcome(subset_oracle.highest_root, rs, comp)


def subset_errors(make):
    """The outcome of each refused call of the subset primitives: non-roots,
    subsets that are not symmetric and components with no unique maximal
    root; make(rs, subset_primitive_name) gives the callable to run."""
    rs = RootSystem(parse_shape("A3"))
    a1, a2, a3 = rs.simple_roots(0)
    bogus = {Root(0, (5, 5, 5)), Root(0, (-5, -5, -5)), Root(1, (1,))}
    cases = [("is_closed", bogus), ("is_closed", bogus | set(rs.roots)),
             ("irreducible_components", {a1}),
             ("irreducible_components", {a1, a2, a3, -a2}),
             ("irreducible_components", set(rs.roots) - {-a1, -a3}),
             ("highest_root", {a1, a2, -a1, -a2}),
             ("highest_root", {a1, a3, -a1, -a3}),
             ("highest_root", set())]
    return [outcome(make(rs, name), sub) for name, sub in cases]


def test_subset_errors_match_the_root_keyed_oracle():
    """The same exception types and texts as the oracle, also under
    `python -O`, which strips asserts."""
    want = subset_errors(
        lambda rs, name: lambda sub: getattr(subset_oracle, name)(rs, sub))
    assert subset_errors(lambda rs, name: getattr(rs, name)) == want
    assert all(isinstance(w, tuple) for w in want)
    tests = os.path.dirname(os.path.abspath(__file__))
    script = ("import sys\n"
              "sys.path.insert(0, %r)\n"
              "from test_rootsystems import subset_errors\n"
              "for out in subset_errors(lambda rs, name: getattr(rs, name)):\n"
              "    print(*out, sep='|')\n" % tests)
    assert optimized_stdout(script).splitlines() == [
        "%s|%s" % w for w in want]


def admitted_types(max_rank):
    for f in rootsystems.FAMILIES:
        for n in range(1, max_rank + 1):
            try:
                yield simple_type(f, n)
            except ValueError:
                pass


def test_counts_separate_the_types():
    """Rank, root count and short simple roots, read off each built system,
    agree with the tables; the tables give distinct triples to rank 100
    apart from B2 = C2."""
    for t in admitted_types(10):
        rs = rs_of(t)
        norms = [sum(a * b for a, b in zip(r.coords, rs._weights[r]))
                 for r in rs.simple_roots(0)]
        short = sum(1 for x in norms if x < max(norms))
        assert len(rs.roots) == rootsystems._ROOT_COUNTS[t.family](t.rank)
        assert short == rootsystems._SHORT_SIMPLES[t.family](t.rank), t
    seen = {}
    for t in admitted_types(100):
        key = (t.rank, rootsystems._ROOT_COUNTS[t.family](t.rank),
               rootsystems._SHORT_SIMPLES[t.family](t.rank))
        seen.setdefault(key, []).append(str(t))
    shared = [names for names in seen.values() if len(names) > 1]
    assert shared == [["B2", "C2"]]


def test_component_type_refuses_reducible_and_empty_subsets():
    """The whole of A1 x A1, the long roots of B2 (an A1 x A1) and the
    empty set have no simple type, also under `python -O`."""
    rs = RootSystem(parse_shape("A1 x A1"))
    rsb = rs_of(SimpleType("B", 2))
    longs = [r for r in rsb.roots if rsb.sym_form(r, r) == 2]
    assert len(longs) == 4
    for system, subset in ((rs, rs.roots), (rsb, longs), (rs, [])):
        with pytest.raises(ValueError, match="empty or reducible"):
            system.component_type(subset)
    script = ("from stemhc.rootsystems import RootSystem, parse_shape\n"
              "rs = RootSystem(parse_shape('A1 x A1'))\n"
              "rsb = RootSystem(parse_shape('B2'))\n"
              "longs = [r for r in rsb.roots if rsb.sym_form(r, r) == 2]\n"
              "for system, subset in ((rs, rs.roots), (rsb, longs), "
              "(rs, [])):\n"
              "    try:\n"
              "        print(system.component_type(subset))\n"
              "    except ValueError as exc:\n"
              "        print(type(exc).__name__, exc)\n")
    assert optimized_stdout(script).splitlines() == [
        "ValueError subset is empty or reducible"] * 3


def test_no_assert_statements_in_the_library():
    """Invariants hold under `python -O`: no module of the package relies on
    an `assert` statement."""
    pkg = os.path.dirname(os.path.abspath(stemhc.__file__))
    found = []
    for root, _, names in os.walk(pkg):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            found += ["%s:%d" % (os.path.relpath(path, pkg), node.lineno)
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


def test_reducedness_and_pairing():
    rs = rs_of(SimpleType("G", 2))
    for r in rs.positives:
        assert Root(0, tuple(2 * c for c in r.coords)) not in rs.root_set
    a1, a2 = rs.simple_roots(0)
    assert rs.pairing(a2, 0) == -3
    assert rs.pairing(a1, 1) == -1


def test_construction_invariants_raise(monkeypatch):
    """A wrong root count, a root system that is not reduced and a Cartan
    integer that is not an integer are refused, also under `python -O`,
    which strips asserts."""
    count = "A2 has 3 positive roots, expected 0"
    reduced = "not reduced: twice 0:(1) is a root"
    cartan = ("2 (0:(0,1), 0:(1,0)) / (0:(1,0), 0:(1,0)) is not an integer")
    monkeypatch.setitem(rootsystems._ROOT_COUNTS, "A", lambda n: 0)
    with pytest.raises(AssertionError) as exc:
        RootSystem(parse_shape("A2"))
    assert str(exc.value) == count
    generate = RootSystem._generate_positives
    monkeypatch.setitem(rootsystems._ROOT_COUNTS, "A", lambda n: 4)
    monkeypatch.setattr(RootSystem, "_generate_positives",
                        lambda self, ci, t: generate(self, ci, t)
                        + [Root(ci, (2,))])
    with pytest.raises(AssertionError) as exc:
        RootSystem(parse_shape("A1"))
    assert str(exc.value) == reduced
    monkeypatch.undo()
    rs = RootSystem(parse_shape("A2"))
    a1, a2 = rs.simple_roots(0)
    rs._norms[rs.index[a1]] = 3
    with pytest.raises(AssertionError) as exc:
        rs.cartan_int(a2, a1)
    assert str(exc.value) == cartan
    script = ("import stemhc.rootsystems as R\n"
              "from stemhc.rootsystems import Root, RootSystem, parse_shape\n"
              "def attempt(make):\n"
              "    try:\n"
              "        make()\n"
              "    except AssertionError as exc:\n"
              "        print(exc)\n"
              "R._ROOT_COUNTS['A'] = lambda n: 0\n"
              "attempt(lambda: RootSystem(parse_shape('A2')))\n"
              "R._ROOT_COUNTS['A'] = lambda n: 4\n"
              "generate = RootSystem._generate_positives\n"
              "RootSystem._generate_positives = (\n"
              "    lambda self, ci, t: generate(self, ci, t) + [Root(ci, (2,))])\n"
              "attempt(lambda: RootSystem(parse_shape('A1')))\n"
              "R._ROOT_COUNTS['A'] = lambda n: n * (n + 1)\n"
              "RootSystem._generate_positives = generate\n"
              "rs = RootSystem(parse_shape('A2'))\n"
              "a1, a2 = rs.simple_roots(0)\n"
              "rs._norms[rs.index[a1]] = 3\n"
              "attempt(lambda: rs.cartan_int(a2, a1))\n")
    assert optimized_stdout(script).splitlines() == [count, reduced, cartan]


# ---------------------------------------------------------------------------
# negation


def negated(r):
    return Root(r.comp, tuple(-c for c in r.coords))


@pytest.mark.parametrize("text", TABLE_SHAPES)
def test_roots_negate_to_their_stored_opposites(text):
    """Right after a build, -r is the stored Root of rs.roots; an equal Root
    built anew negates to the same value."""
    rs = RootSystem(parse_shape(text))
    stored = {r: r for r in rs.roots}
    for r in rs.roots:
        neg = -r
        assert neg == negated(r)
        assert neg is stored[neg]
        assert -neg is r
        assert -Root(r.comp, tuple(r.coords)) is neg


def test_a_root_no_system_holds_still_negates():
    RootSystem(parse_shape("A2"))
    for r in (Root(0, (5, 5)), Root(7, (1, -2, 3)), Root(0, ())):
        assert -r == negated(r)
        assert -(-r) == r


def test_negation_survives_a_rebuild():
    """Clearing the caches and building again, as a fresh job does, keeps
    every value and hands back the new system's objects."""
    sh = parse_shape("c^2 x A3 x B2")
    for cached in (build_cached, chevalley.make_basis, stem.stem_of):
        cached.cache_clear()
    first = build_cached(sh)
    before = {r: -r for r in first.roots}
    build_cached.cache_clear()
    rs = build_cached(sh)
    assert rs is not first
    stored = {r: r for r in rs.roots}
    for r in first.roots:
        assert -r == before[r] == negated(r)
        assert -r is stored[negated(r)]
    for cached in (build_cached, chevalley.make_basis, stem.stem_of):
        cached.cache_clear()
