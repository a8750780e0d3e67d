import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from stemhc.chevalley import AlgebraElement, ChevalleyBasis, make_basis
from stemhc.rootsystems import (
    Root, RootSystem, SimpleType, parse_shape, shape,
)
from stemhc.scalars import TowerScalar, ZERO, ONE, I, EIGHTH_ROOT
from stemhc.stem import compute_stem
import construction_oracle as co
from construction_oracle import root_sub, root_sum
from test_rootsystems import TABLE_SHAPES, highest_roots, optimized_stdout
from test_scalars import as_fraction, scalars


RANK_LE_4 = [
    SimpleType("A", 1), SimpleType("A", 2), SimpleType("A", 3),
    SimpleType("A", 4), SimpleType("B", 2), SimpleType("B", 3),
    SimpleType("B", 4), SimpleType("C", 2), SimpleType("C", 3),
    SimpleType("C", 4), SimpleType("D", 4), SimpleType("F", 4),
    SimpleType("G", 2),
]


def cb_of(t):
    return make_basis(shape(t))


def sum_triples(rs):
    """(a, b, a + b) over the ordered pairs of roots whose sum is a root, by
    `RootSystem.sum`, in the order of a and then of b."""
    return [(a, b, c) for a in rs.roots for b in rs.roots
            if (c := rs.sum(a, b)) is not None]


def constants(cb):
    """{(a, b): N(a, b)} over the pairs of roots whose sum is a root."""
    return {(a, b): cb.N(a, b) for a, b, _ in sum_triples(cb.rs)}


def table_pairs(cb):
    """The pairs (a, b) of roots whose cell of the constant table is not 0."""
    roots = cb.rs.roots
    R = len(roots)
    return {(roots[k // R], roots[k % R])
            for k, n in enumerate(cb.n_table) if n}


# ---------------------------------------------------------------------------
# structure constants


@pytest.mark.parametrize("t", RANK_LE_4 + [SimpleType("D", 5)], ids=str)
def test_constant_magnitudes_are_string_lengths(t):
    cb = cb_of(t)
    rs = cb.rs
    for (a, b), n in constants(cb).items():
        p = 0
        v = root_sub(b, a)
        while v in rs.root_set:
            p += 1
            v = root_sub(v, a)
        assert abs(n) == p + 1, (a, b, n)


@pytest.mark.parametrize("t", RANK_LE_4, ids=str)
def test_constant_antisymmetries(t):
    cb = cb_of(t)
    for (a, b), n in constants(cb).items():
        assert cb.N(b, a) == -n
        assert cb.N(-a, -b) == -n


# every simple type of rank <= 6, E6, F4 and G2 among them, and a product
# with a center
ORACLE_SHAPES = (["A%d" % n for n in range(1, 7)]
                 + ["B%d" % n for n in range(2, 7)]
                 + ["C%d" % n for n in range(2, 7)]
                 + ["D4", "D5", "D6", "E6", "F4", "G2", "c^2 x A3 x B2"])


def fraction_killing_h(cb):
    """tr(ad H_i ad H_j) summed in Fractions, the identity on the center."""
    rs = cb.rs
    n = cb.total_rank
    K = [[Fraction(0)] * n for _ in range(n)]
    for ci, t in enumerate(rs.shape.simples):
        off = cb.offsets[ci]
        roots = [b for b in rs.roots if b.comp == ci]
        for i in range(t.rank):
            for j in range(t.rank):
                K[off + i][off + j] = sum(
                    (Fraction(rs.pairing(b, i) * rs.pairing(b, j))
                     for b in roots), Fraction(0))
    for j in range(cb.semisimple_rank, n):
        K[j][j] = Fraction(1)
    return K


@pytest.mark.parametrize("text", ORACLE_SHAPES)
def test_integer_data_match_fraction_formulas(text):
    """The constants, hroot, killing_h and the oracle's killing_e against
    the Fraction formulas N(b,-c) = N(a,b) |a|^2/|c|^2, H_r = sum m_i
    (d_i/d_r) H_i and the traces, in value and in type."""
    cb = make_basis(parse_shape(text))
    rs = cb.rs
    triples = sum_triples(rs)
    assert table_pairs(cb) == {(a, b) for a, b, _ in triples}
    for a, b, c in triples:
        n = cb.N(a, b)
        assert type(n) is int
        nc = rs.sym_form(c, c)
        assert cb.N(b, -c) == n * rs.sym_form(a, a) / nc
        assert cb.N(-c, a) == n * rs.sym_form(b, b) / nc
    for r in rs.roots:
        dr = rs.sym_form(r, r) / 2
        want = [Fraction(0)] * cb.total_rank
        for i, m in enumerate(r.coords):
            want[cb.offsets[r.comp] + i] = m * rs.dvecs[r.comp][i] / dr
        h = cb.hroot[r]
        assert type(h) is tuple and list(h) == want
        assert all(type(x) is int for x in h)
    K = fraction_killing_h(cb)
    assert cb.killing_h == K
    assert all(type(x) is Fraction for row in cb.killing_h for x in row)
    killing_e = co.killing_e(cb)
    assert list(killing_e) == rs.positives
    for r, val in killing_e.items():
        h = cb.hroot[r]
        want = sum((h[i] * h[j] * K[i][j] for i in range(len(h))
                    for j in range(len(h))), Fraction(0)) / 2
        assert type(val) is Fraction and val == want


# every shape whose tables a test pins, and two products with simple factors
# of different types
CONSTRUCTION_SHAPES = list(dict.fromkeys(
    TABLE_SHAPES + ORACLE_SHAPES + ["A1 x A1 x A3", "c^2 x B3 x G2"]))


@pytest.mark.parametrize("text", CONSTRUCTION_SHAPES)
def test_construction_matches_the_root_keyed_oracle(text):
    """The root system and basis tables against the Root-keyed construction
    of `construction_oracle`: the same keys, in the same order, with the
    same values, the constants ints."""
    sh = parse_shape(text)
    want = co.root_tables(sh)
    rs = RootSystem(sh)
    assert rs.positives == want["positives"]
    assert list(rs.roots) == want["roots"]
    for a in rs.roots:
        row = want["sums"][a]
        for b in rs.roots:
            assert rs.sum(a, b) == row.get(b)
    assert rs._sum_rows == want["sum_rows"]
    assert list(rs._pairings.items()) == list(want["pairings"].items())
    assert list(rs._weights.items()) == list(want["weights"].items())
    cb = ChevalleyBasis(rs)
    assert constants(cb) == co.structure_constants(want)
    assert all(type(n) is int for n in constants(cb).values())
    assert list(cb.hroot.items()) == list(co.coroots(cb).items())
    assert list(cb.pairings.items()) == list(co.slot_pairings(cb).items())
    # B(H_r, H_r) = 2 B(E_r, E_-r): the basis's killing_h and hroot against
    # the oracle's trace form on root vectors
    for r, val in co.killing_e(cb).items():
        h = cb.H_of_root(r)
        assert co.invariant_form(cb, h, h) == TowerScalar.of(2 * val)


@pytest.mark.parametrize("text", CONSTRUCTION_SHAPES)
def test_constant_table_cells(text):
    """N(a, b) is a nonzero int exactly on the pairs with a root sum, where
    it reads the table's cell, with N(b, a) = N(-a, -b) = -N(a, b); every
    other cell reads 0, and N raises KeyError there."""
    cb = make_basis(parse_shape(text))
    rs = cb.rs
    roots = rs.roots
    R = len(roots)
    assert len(cb.n_table) == R * R
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            cell = cb.n_table[i * R + j]
            if rs.sum(a, b) is not None:
                n = cb.N(a, b)
                assert type(n) is int and n and n == cell
                assert cb.N(b, a) == -n and cb.N(-a, -b) == -n
            else:
                assert cell == 0
                with pytest.raises(KeyError):
                    cb.N(a, b)


def test_integrality_checks_raise(monkeypatch):
    """A non-integral constant from a triple or from the Jacobi identity, a
    non-simple root with no decomposition and a non-integral coroot are
    refused, also under `python -O`, which strips asserts."""
    triple = "non-integral structure constant on (0:(0,1), 0:(1,1))"
    jacobi = "Jacobi forces a non-integral constant on (0:(1,0,0), 0:(0,1,1))"
    special = "non-simple root 0:(1,1) with no decomposition"
    coroot = "coroot of 0:(1) has a non-integral coordinate"
    string = RootSystem.root_string
    monkeypatch.setattr(RootSystem, "root_string", lambda self, a, b: (0, 0))
    with pytest.raises(AssertionError) as exc:
        ChevalleyBasis(RootSystem(parse_shape("B2")))
    assert str(exc.value) == triple
    # p = -1 on the one triple of height 3: its constants double
    monkeypatch.setattr(RootSystem, "root_string", lambda self, a, b: (
        (-1, 0) if a.height + b.height == 3 else string(self, a, b)))
    with pytest.raises(AssertionError) as exc:
        ChevalleyBasis(RootSystem(parse_shape("A3")))
    assert str(exc.value) == jacobi
    monkeypatch.undo()
    rs = RootSystem(parse_shape("A2"))
    rs._sum_rows[len(rs.positives) - 1] = ()
    with pytest.raises(AssertionError) as exc:
        ChevalleyBasis(rs)
    assert str(exc.value) == special
    rs = RootSystem(parse_shape("A1"))
    rs._norms[0] = 4
    with pytest.raises(AssertionError) as exc:
        ChevalleyBasis(rs)
    assert str(exc.value) == coroot
    script = ("from stemhc.chevalley import ChevalleyBasis\n"
              "from stemhc.rootsystems import RootSystem, parse_shape\n"
              "def attempt(rs):\n"
              "    try:\n"
              "        ChevalleyBasis(rs)\n"
              "    except AssertionError as exc:\n"
              "        print(exc)\n"
              "string = RootSystem.root_string\n"
              "RootSystem.root_string = lambda self, a, b: (0, 0)\n"
              "attempt(RootSystem(parse_shape('B2')))\n"
              "RootSystem.root_string = lambda self, a, b: (\n"
              "    (-1, 0) if a.height + b.height == 3\n"
              "    else string(self, a, b))\n"
              "attempt(RootSystem(parse_shape('A3')))\n"
              "RootSystem.root_string = string\n"
              "rs = RootSystem(parse_shape('A2'))\n"
              "rs._sum_rows[len(rs.positives) - 1] = ()\n"
              "attempt(rs)\n"
              "rs = RootSystem(parse_shape('A1'))\n"
              "rs._norms[0] = 4\n"
              "attempt(rs)\n")
    assert optimized_stdout(script).splitlines() == [
        triple, jacobi, special, coroot]


def test_missing_constant_raises(monkeypatch):
    """A basis whose constants miss one pair with a root sum is refused, the
    pair named in either order of the index numbering, and so are a Cartan
    vector of the wrong length and a compact generator X or Y
    with a phase off the unit circle, zero included, also under `python -O`,
    which strips asserts; so is a Cartan basis key past the last slot."""
    rs = RootSystem(parse_shape("A2"))
    cb = ChevalleyBasis(rs)
    a = rs.positives[0]
    b = next(b for b in rs.roots if rs.sum(a, b) is not None)
    # a before b in the index numbering, and then after it
    pairs = [(a, b), (b, a)]
    wants = ["no structure constant for (%s, %s)" % p for p in pairs]
    short = "need 2 Cartan coordinates, got 1"
    long = "need 2 Cartan coordinates, got 3"
    for vec, msg in (([1], short), ([1, 0, 1], long)):
        with pytest.raises(ValueError) as exc:
            cb.H_vec(vec)
        assert str(exc.value) == msg
    with pytest.raises(ValueError):
        cb.basis_element(("h", 2))
    g = rs.positives[-1]
    phases = ("0", "2", "1/2+1/2i")
    for rho in phases:
        for make in (cb.X, cb.Y):
            with pytest.raises(ValueError) as exc:
                make(g, TowerScalar.parse(rho))
            assert str(exc.value) == ("phase is not unit modulus: %s"
                                      % TowerScalar.parse(rho))
    assert cb.X(g, I) == cb.Y(g)
    build = ChevalleyBasis._build_constants
    for pair, want in zip(pairs, wants):

        def dropping(self, ci):
            """The build, and then the cell of `pair` set to 0."""
            build(self, ci)
            index = self.rs.index
            self.n_table[index[pair[0]] * len(index) + index[pair[1]]] = 0

        monkeypatch.setattr(ChevalleyBasis, "_build_constants", dropping)
        with pytest.raises(ValueError) as exc:
            ChevalleyBasis(rs)
        assert str(exc.value) == want
    monkeypatch.undo()
    script = ("from stemhc.chevalley import ChevalleyBasis\n"
              "from stemhc.rootsystems import RootSystem, parse_shape\n"
              "from stemhc.scalars import TowerScalar\n"
              "cb = ChevalleyBasis(RootSystem(parse_shape('A2')))\n"
              "for vec in ([1], [1, 0, 1]):\n"
              "    try:\n"
              "        cb.H_vec(vec)\n"
              "    except ValueError as exc:\n"
              "        print(exc)\n"
              "for rho in %r:\n"
              "    for make in (cb.X, cb.Y):\n"
              "        try:\n"
              "            make(cb.rs.positives[-1], TowerScalar.parse(rho))\n"
              "        except ValueError as exc:\n"
              "            print(exc)\n"
              "build = ChevalleyBasis._build_constants\n"
              "rs = RootSystem(parse_shape('A2'))\n"
              "i, j = 0, rs._sum_rows[0][0]\n"
              "for u, v in ((i, j), (j, i)):\n"
              "    def dropping(self, ci):\n"
              "        build(self, ci)\n"
              "        self.n_table[u * len(self.rs.roots) + v] = 0\n"
              "    ChevalleyBasis._build_constants = dropping\n"
              "    try:\n"
              "        ChevalleyBasis(rs)\n"
              "    except ValueError as exc:\n"
              "        print(exc)\n") % (phases,)
    assert optimized_stdout(script).splitlines() == (
        [short, long]
        + ["phase is not unit modulus: %s" % TowerScalar.parse(rho)
           for rho in phases for _ in range(2)]
        + wants)


def reference_bracket(cb, x, y):
    """The bracket term by term from coordinate sums of roots and `N`,
    without `RootSystem.sum` or the root codes, and with alpha(h) summed
    over the dense Cartan view against the root system's pairings."""
    rs = cb.rs

    def root_at(alpha, hvec):
        off = cb.offsets[alpha.comp]
        return sum((hvec[off + j] * rs.pairing(alpha, j)
                    for j in range(len(alpha.coords))), ZERO)

    h = [ZERO] * cb.total_rank
    e = {}
    for a, ca in x.e.items():
        for b, cb2 in y.e.items():
            s = root_sum(a, b)
            if s is None:
                continue
            if s in rs.root_set:
                e[s] = e.get(s, ZERO) + ca * cb2 * cb.N(a, b)
            elif not any(s.coords):
                h = [v + ca * cb2 * m for v, m in zip(h, cb.hroot[a])]
    for b, cb2 in y.e.items():
        e[b] = e.get(b, ZERO) + root_at(b, x.h) * cb2
    for a, ca in x.e.items():
        e[a] = e.get(a, ZERO) - root_at(a, y.h) * ca
    return AlgebraElement(cb, {j: v for j, v in enumerate(h) if v},
                          {r: c for r, c in e.items() if c})


def random_element(cb, rng, n_roots):
    """A sparse element: a few root vectors (a root and its negative are
    likely together) and a Cartan part with some zero coordinates."""
    def scalar():
        return TowerScalar(rng.randint(-3, 3), rng.randint(-3, 3),
                           rng.randint(-2, 2), rng.randint(-2, 2))

    x = cb.H_vec([scalar() if rng.random() < 0.5 else ZERO
                  for _ in range(cb.total_rank)])
    for _ in range(n_roots):
        r = rng.choice(cb.rs.roots)
        x = x + cb.E(r, scalar()) + cb.E(-r, scalar())
    return x


@pytest.mark.parametrize("text", [str(t) for t in RANK_LE_4]
                         + ["c^4 x A2", "A2 x B2"])
def test_bracket_matches_reference(text):
    cb = make_basis(parse_shape(text))
    rng = random.Random(8)
    for _ in range(40):
        x = random_element(cb, rng, rng.randint(0, 4))
        y = random_element(cb, rng, rng.randint(0, 4))
        got = cb.bracket(x, y)
        assert got == reference_bracket(cb, x, y)
        assert all(got.e.values())
    # cancelling terms leave no zero coefficient behind
    a = cb.rs.positives[0]
    h = cb.H_of_root(a)
    got = cb.bracket(h, cb.E(a) + cb.E(-a))
    assert got == reference_bracket(cb, h, cb.E(a) + cb.E(-a))
    assert all(got.e.values())


def test_root_products_table():
    """`rs.sum` against coordinate sums: a root exactly on the pairs with a
    root sum, b = -a not among them, and those are exactly the pairs with a
    structure constant."""
    cb = cb_of(SimpleType("B", 3))
    rs = cb.rs
    stored = {r: r for r in rs.roots}
    for a in rs.roots:
        assert rs.sum(a, -a) is None
        for b in rs.roots:
            s = root_sum(a, b)
            if s in rs.root_set:
                assert rs.sum(a, b) is stored[s]
            else:
                assert rs.sum(a, b) is None
    assert table_pairs(cb) == {(a, b) for a, b, _ in sum_triples(rs)}


def test_combine_matches_the_chain():
    cb = make_basis(parse_shape("c^4 x A2"))
    rng = random.Random(5)
    for _ in range(30):
        elems = [random_element(cb, rng, 2) for _ in range(3)]
        coefs = [TowerScalar(rng.randint(-2, 2), rng.randint(-2, 2))
                 for _ in elems]
        # a term and its negative, so some coordinates cancel
        terms = list(zip(coefs, elems))
        terms += [(coefs[0], -elems[0]), (2, elems[1])]
        chain = cb.zero()
        for c, x in terms:
            chain = chain + x.scale(c)
        got = cb.combine(terms)
        assert got == chain
        assert all(got.e.values())
    assert cb.combine([]) == cb.zero()
    with pytest.raises(ValueError):
        cb.combine([(ONE, cb_of(SimpleType("A", 2)).zero())])


def dense(x):
    """x as a list of coordinates in `basis_keys` order, its Cartan part
    read off the dense view `h`."""
    cb = x.cb
    out = [ZERO] * len(cb.basis_keys)
    for r, c in x.e.items():
        out[cb.key_index[("e", r)]] = c
    for j, c in enumerate(x.h):
        out[cb.key_index[("h", j)]] = c
    return out


def dense_bracket(cb, x, y):
    """[x, y] by bilinearity: x_i y_j [b_i, b_j] summed into a dense list
    from ZERO, one basis pair per bracket call."""
    basis = [cb.basis_element(k) for k in cb.basis_keys]
    out = [ZERO] * len(basis)
    for i, xi in enumerate(dense(x)):
        for j, yj in enumerate(dense(y)):
            if xi and yj:
                for k, v in enumerate(dense(cb.bracket(basis[i], basis[j]))):
                    out[k] = out[k] + xi * yj * v
    return out


@pytest.mark.parametrize("text", ["A2", "G2", "c^2 x A2"])
def test_sums_match_a_dense_accumulation(text):
    """`bracket` and `combine` on random elements against dense sums that
    start from ZERO, with coefficients that cancel and int factors."""
    cb = make_basis(parse_shape(text))
    rng = random.Random(15)
    for _ in range(12):
        x, y, z = (random_element(cb, rng, rng.randint(0, 3))
                   for _ in range(3))
        got = cb.bracket(x, y)
        assert dense(got) == dense_bracket(cb, x, y)
        assert all(got.e.values()) and all(got.cartan.values())
        terms = [(TowerScalar(rng.randint(-2, 2), Fraction(1, 3)), x),
                 (rng.randint(-3, 3), y), (ONE, z), (-1, x), (-2, y)]
        want = [ZERO] * len(cb.basis_keys)
        for c, w in terms:
            want = [acc + c * v for acc, v in zip(want, dense(w))]
        got = cb.combine(terms)
        assert dense(got) == want
        assert all(got.e.values()) and all(got.cartan.values())


def test_eval_root_of_a_cancelling_cartan_part_is_zero():
    """alpha(h) whose contributions cancel, and alpha of an empty Cartan
    part, is the canonical zero."""
    cb = make_basis(parse_shape("G2"))
    both = [a for a in cb.rs.roots if len(cb.pairings[a]) == 2]
    assert len(both) >= 6
    for alpha in both:
        (j0, p0), (j1, p1) = sorted(cb.pairings[alpha].items())
        s = TowerScalar(Fraction(2, 3), 1, Fraction(-1, 5), 0)
        got = cb.eval_root(alpha, {j0: s * p1, j1: -s * p0})
        assert (got._n0, got._n1, got._n2, got._n3, got._d) == \
            (0, 0, 0, 0, 1)
        assert cb.eval_root(alpha, {}) is ZERO


coefficients = st.one_of(st.just(ZERO), scalars)


@st.composite
def elements(draw, cb):
    """A Cartan part with some zero coordinates plus a few root vectors,
    some of them with a zero coefficient."""
    x = cb.H_vec([draw(coefficients) for _ in range(cb.total_rank)])
    for r in draw(st.lists(st.sampled_from(cb.rs.roots), max_size=4)):
        x = x + cb.E(r, draw(coefficients))
    return x


def assert_sparse(x):
    """No zero coefficient is stored, and the dense view `h` has length
    total_rank and agrees with the sparse Cartan part."""
    assert all(x.cartan.values()) and all(x.e.values())
    assert len(x.h) == x.cb.total_rank
    assert {j: c for j, c in enumerate(x.h) if c} == x.cartan


@given(st.sampled_from(["A2", "B2", "G2", "c^2 x A2", "A1 x B2"]),
       st.data())
@settings(max_examples=60, deadline=None)
def test_operations_store_no_zero(text, data):
    cb = make_basis(parse_shape(text))
    x = data.draw(elements(cb))
    y = data.draw(elements(cb))
    c = data.draw(coefficients)
    key = data.draw(st.sampled_from(cb.basis_keys))
    for z in (x, y, cb.basis_element(key), cb.bracket(x, y),
              cb.bracket(x, x), cb.combine([(c, x), (ONE, y), (-c, x)]),
              x + y, x - y, x - x, x.scale(c), cb.tau(x)):
        assert_sparse(z)
    assert (x - x).is_zero()
    assert cb.bracket(x, x).is_zero()


@pytest.mark.parametrize("t", RANK_LE_4, ids=str)
def test_jacobi_exhaustive(t):
    cb = cb_of(t)
    basis = [cb.basis_element(k) for k in cb.basis_keys]
    zero = cb.zero()
    for x, y, z in combinations(basis, 3):
        total = (cb.bracket(x, cb.bracket(y, z))
                 + cb.bracket(y, cb.bracket(z, x))
                 + cb.bracket(z, cb.bracket(x, y)))
        assert total == zero


@pytest.mark.parametrize("t", [SimpleType("D", 5), SimpleType("E", 6),
                               SimpleType("C", 7), SimpleType("E", 8)],
                         ids=str)
def test_jacobi_sampled_high_rank(t):
    cb = cb_of(t)
    rng = random.Random(20260814)
    keys = cb.basis_keys
    zero = cb.zero()
    for _ in range(250):
        x, y, z = (cb.basis_element(rng.choice(keys)) for _ in range(3))
        total = (cb.bracket(x, cb.bracket(y, z))
                 + cb.bracket(y, cb.bracket(z, x))
                 + cb.bracket(z, cb.bracket(x, y)))
        assert total == zero


@pytest.mark.parametrize("text", TABLE_SHAPES)
def test_coroot_normalization(text):
    cb = make_basis(parse_shape(text))
    rs = cb.rs
    for a in rs.roots:
        # [E_a, E_{-a}] is the coroot, and a(H_a) = 2
        h = cb.bracket(cb.E(a), cb.E(-a))
        assert h == cb.H_of_root(a)
        assert cb.eval_root(a, h.cartan) == TowerScalar(2)


def test_h_acts_diagonally():
    cb = cb_of(SimpleType("G", 2))
    rs = cb.rs
    h = cb.H_vec([TowerScalar(2), TowerScalar(-3)])
    for b in rs.roots:
        got = cb.bracket(h, cb.E(b))
        want = cb.E(b, cb.eval_root(b, h.cartan))
        assert got == want


def test_cross_component_brackets_vanish():
    cb = make_basis(parse_shape("A1 x A1"))
    rs = cb.rs
    a = [r for r in rs.positives if r.comp == 0][0]
    b = [r for r in rs.positives if r.comp == 1][0]
    assert cb.bracket(cb.E(a), cb.E(b)) == cb.zero()
    assert cb.bracket(cb.E(a), cb.E(-b)) == cb.zero()


def test_mismatched_bases_rejected():
    cb1 = cb_of(SimpleType("A", 2))
    cb2 = make_basis(parse_shape("A2 x A1"))
    with pytest.raises(ValueError):
        cb1.bracket(cb1.E(cb1.rs.positives[0]), cb2.E(cb2.rs.positives[0]))
    with pytest.raises(ValueError):
        cb1.E(cb1.rs.positives[0]) + cb2.E(cb2.rs.positives[0])


# ---------------------------------------------------------------------------
# the compact conjugation


@pytest.mark.parametrize("t", [SimpleType("A", 3), SimpleType("B", 3),
                               SimpleType("G", 2)], ids=str)
def test_tau_properties(t):
    cb = cb_of(t)
    rs = cb.rs
    rng = random.Random(7)

    def rand_elem():
        x = cb.zero()
        for _ in range(3):
            r = rng.choice(rs.roots)
            c = TowerScalar(rng.randint(-3, 3), rng.randint(-3, 3),
                            rng.randint(-2, 2), rng.randint(-2, 2))
            x = x + cb.E(r, c)
        hv = [TowerScalar(rng.randint(-2, 2), rng.randint(-2, 2))
              for _ in range(cb.total_rank)]
        return x + cb.H_vec(hv)

    for a in rs.roots:
        assert cb.tau(cb.E(a)) == cb.E(-a, -ONE)
    for _ in range(25):
        x, y = rand_elem(), rand_elem()
        assert cb.tau(cb.tau(x)) == x
        assert cb.tau(x + y) == cb.tau(x) + cb.tau(y)
        assert cb.tau(x.scale(I)) == cb.tau(x).scale(-I)
        assert cb.tau(cb.bracket(x, y)) == cb.bracket(cb.tau(x), cb.tau(y))


def test_tau_fixes_compact_generators():
    cb = cb_of(SimpleType("B", 2))
    g = cb.rs.positives[-1]
    for rho in (ONE, I, EIGHTH_ROOT):
        for v in (cb.X(g, rho), cb.Y(g, rho), cb.W(g)):
            assert cb.tau(v) == v


# ---------------------------------------------------------------------------
# the invariant form, against the dual Coxeter oracle


def dual_coxeter(t: SimpleType) -> int:
    f, n = t.family, t.rank
    return {"A": n + 1, "B": 2 * n - 1, "C": n + 1, "D": 2 * n - 2,
            "E": {6: 12, 7: 18, 8: 30}.get(n), "F": 9, "G": 4}[f]


@pytest.mark.parametrize("text", [str(t) for t in RANK_LE_4] + [
    "D5", "E6", "E7", "E8", "B8", "C8", "D8", "c^2 x A3 x B2"])
def test_killing_numbers_match_dual_coxeter(text):
    sh = parse_shape(text)
    cb = make_basis(sh)
    rs = cb.rs
    n = cb.total_rank
    # no factor pairs with another, and the center carries the identity
    want_h = [[Fraction(0)] * n for _ in range(n)]
    for j in range(cb.semisimple_rank, n):
        want_h[j][j] = Fraction(1)
    for ci, t in enumerate(sh.simples):
        theta = highest_roots(rs, {r for r in rs.roots if r.comp == ci})[0]
        n2t = rs.sym_form(theta, theta)
        hv = dual_coxeter(t)
        for a in rs.positives:
            if a.comp == ci:
                expected = Fraction(2 * hv) * n2t / rs.sym_form(a, a)
                assert co.killing_e(cb)[a] == expected
        off = cb.offsets[ci]
        simples = rs.simple_roots(ci)
        for i, ai in enumerate(simples):
            for j, aj in enumerate(simples):
                want_h[off + i][off + j] = (
                    Fraction(2 * hv) * 2 * rs.sym_form(ai, aj) * n2t
                    / (rs.sym_form(ai, ai) * rs.sym_form(aj, aj)))
    assert cb.killing_h == want_h


@pytest.mark.parametrize("t", [SimpleType("A", 3), SimpleType("C", 3),
                               SimpleType("G", 2)], ids=str)
def test_form_orthogonality_pattern(t):
    cb = cb_of(t)
    rs = cb.rs
    for a in rs.roots:
        for b in rs.roots:
            v = co.invariant_form(cb, cb.E(a), cb.E(b))
            if b == -a:
                assert v and v.is_rational() and as_fraction(v) > 0
            else:
                assert not v
        h = cb.H_of_root(a)
        assert not co.invariant_form(cb, cb.E(a), h)


@pytest.mark.parametrize("t", [SimpleType("A", 2), SimpleType("B", 2)],
                         ids=str)
def test_form_invariance(t):
    cb = cb_of(t)
    rng = random.Random(3)
    basis = [cb.basis_element(k) for k in cb.basis_keys]
    for _ in range(60):
        x, y, z = (rng.choice(basis) for _ in range(3))
        lhs = co.invariant_form(cb, cb.bracket(x, y), z)
        rhs = co.invariant_form(cb, x, cb.bracket(y, z))
        assert lhs == rhs


def test_compact_vectors_have_negative_norm():
    cb = cb_of(SimpleType("C", 3))
    for g in cb.rs.positives:
        for rho in (ONE, I, EIGHTH_ROOT):
            for v in (cb.X(g, rho), cb.Y(g, rho), cb.W(g)):
                n = co.invariant_form(cb, v, v)
                assert n.is_rational() and as_fraction(n) < 0
        x, y, w = cb.X(g), cb.Y(g), cb.W(g)
        assert not co.invariant_form(cb, x, y)
        assert not co.invariant_form(cb, x, w)
        assert not co.invariant_form(cb, y, w)


def test_center_form_convention():
    cb = make_basis(parse_shape("c^2 x A1"))
    c0 = cb.H_vec([ZERO, TowerScalar(0), ONE, ZERO][:cb.total_rank])
    # total_rank = 3: coroot coordinate then two center coordinates
    c1 = cb.H_vec([ZERO, ONE, ZERO])
    c2 = cb.H_vec([ZERO, ZERO, ONE])
    assert co.invariant_form(cb, c1, c1) == ONE
    assert co.invariant_form(cb, c2, c2) == ONE
    assert not co.invariant_form(cb, c1, c2)
    # the compact center basis i*c_j has norm -1
    ic = c1.scale(I)
    assert co.invariant_form(cb, ic, ic) == -ONE
    # center commutes with everything and is tau-fixed after the i twist
    e = cb.E(cb.rs.positives[0])
    assert cb.bracket(c1, e) == cb.zero()
    assert cb.tau(ic) == ic
    del c0


def test_sl2_triple_brackets():
    cb = cb_of(SimpleType("A", 1))
    a = cb.rs.positives[0]
    E, F, H = cb.E(a), cb.E(-a), cb.H_of_root(a)
    assert cb.bracket(E, F) == H
    assert cb.bracket(H, E) == E.scale(TowerScalar(2))
    assert cb.bracket(H, F) == F.scale(TowerScalar(-2))
    assert co.invariant_form(cb, E, F) == TowerScalar(4)
    assert co.invariant_form(cb, H, H) == TowerScalar(8)
