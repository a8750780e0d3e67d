"""The adapted basis, both complex structures, and the root rotations."""

import copy
import os
import random
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import stemhc
from stemhc import hcstruct, linalg
from stemhc.chevalley import AlgebraElement, ChevalleyBasis, make_basis
from stemhc.classify import enumerate_hc_spaces
from stemhc.cli import SELFTEST_BUILDS
from stemhc.hcstruct import (
    HCStructure, PBasis, _apply_cols, _compose_cols, _dense_view,
    _eigenvectors, _rotation_poly, algebra_generators, build_structure,
    compact_basis, conjugation_matrix, eigenspace, g_coords,
    root_coupling_matrix, root_rotation,
    rotation_product, stem_central_kernel,
    stem_z_vectors, subalgebra_basis, subalgebra_generators,
    verify_eigenspace_transport, verify_equivariance, verify_integrability,
    verify_operator_identities, verify_root_coupling, verify_rotation,
    verify_rotation_spans, verify_wing_restriction,
)
from stemhc.linalg import Span
from stemhc.pairs import PairSpec, check_pair, enumerate_substems, \
    make_pair_spec
from stemhc.rootsystems import Root, build_cached, parse_shape
from stemhc.reporting import CheckReport
from stemhc.scalars import EIGHTH_ROOT, HALF, I, ONE, SQRT2, TowerScalar, ZERO
from stemhc.stem import stem_of

from construction_oracle import root_sub
from matrix_oracle import rotation_float_error

PYTH = TowerScalar(Fraction(3, 5), Fraction(4, 5))  # a non-dyadic unit phase

ACCEPTED = [
    ("A2", (), 0),
    ("A3", (2,), 0),
    ("A4", (2,), 0),
    ("A2 x A2", (), 0),
    ("c^4 x A2", (), 0),
]


def build(shape, substem=(), o_k_dim=0, phases=None):
    spec = make_pair_spec(shape, substem, o_k_dim)
    return build_structure(spec, phases=phases)


def sparse_cols(m):
    """The sparse columns HCStructure stores, read off a dense matrix."""
    n = len(m)
    return [{i: m[i][j] for i in range(n) if m[i][j]} for j in range(n)]


def negated_two_cycle(hc):
    """hc with J negated on both columns of the 2-cycle through the first
    positive root: J still squares to -1, but it is no longer integrable."""
    pb = hc.pbasis
    a = pb.index[("e", pb.dp_plus[0])]
    (b,) = hc.j_cols[a]
    cols = [{i: -v for i, v in col.items()} if j in (a, b) else col
            for j, col in enumerate(hc.j_cols)]
    return HCStructure(pb, hc.i_cols, cols, hc.tau_cols)


def run_python(script, *flags):
    """Standard output of `python <flags> -c script` with this stemhc."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(stemhc.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


# ------------------------------------------------------------ adapted basis


def test_su3_alone_splitting():
    pb = build("A2").pbasis
    th = pb.gamma_p[0]
    assert pb.num_p == 1 and pb.gamma_k == []
    # all three positive roots are free, sorted by root key
    assert [a.coords for a in pb.dp_plus] == [(0, 1), (1, 0), (1, 1)]
    assert th.coords == (1, 1)
    # the central partner of theta: the one kernel direction of its pairing row
    assert pb.z_vecs == [[Fraction(1), Fraction(-1)]]
    assert pb.j_vecs == []
    assert len(pb.labels) == 8
    assert pb.labels[-2:] == [("p", 0), ("q", 0)]


def test_su4_su2_splitting():
    pb = build("A3", (2,)).pbasis
    assert [g.coords for g in pb.gamma_p] == [(1, 1, 1)]
    assert [g.coords for g in pb.gamma_k] == [(0, 1, 0)]
    # p holds two Cartan directions: P and Q of the one free stem root
    assert [lab for lab in pb.labels if lab[0] in "pqu"] == \
        [("p", 0), ("q", 0)]
    assert pb.data.dim_h_p == 2
    assert len(pb.z_vecs) == 1 and pb.j_vecs == []
    assert len(pb.dp_plus) == 5
    assert len(pb.labels) == 12


def test_centered_splitting():
    pb = build("c^4 x A2").pbasis
    assert pb.num_p == 1
    assert len(pb.j_vecs) == 4
    assert [lab for lab in pb.labels if lab[0] == "u"] == \
        [("u", 0), ("u", 1), ("u", 2), ("u", 3)]
    assert len(pb.labels) == 12
    # every central partner vector is killed by every stem functional
    cb = pb.cb
    for v in pb.z_vecs + pb.j_vecs:
        for g in pb.stem.elements:
            assert cb.eval_root(g, cb.H_vec(v).cartan) == ZERO


def test_o_k_padding_takes_orthogonal_center():
    # centered su(4) > su(2) with a 2-dim abelian summand moved into k
    hc = build("c^2 x A3", (2,), o_k_dim=2)
    pb = hc.pbasis
    assert len(pb.o_k) == 2
    assert pb.data.dim_o_p == 1 and pb.j_vecs == []
    assert hc.verify_all().ok


def test_decompose_h_gamma_is_minus_i_p_plus_q():
    pb = build("A2").pbasis
    th = pb.gamma_p[0]
    d = pb.decompose(pb.cb.H_of_root(th))
    assert d.in_p
    assert d.coords[pb.index[("p", 0)]] == -I
    assert d.coords[pb.index[("q", 0)]] == -I
    assert len(d.coords) == 2


def test_decompose_z_vector_splits_p_minus_q():
    pb = build("A2").pbasis
    d = pb.decompose(pb.cb.H_vec(pb.z_vecs[0]))
    assert d.coords[pb.index[("p", 0)]] == HALF
    assert d.coords[pb.index[("q", 0)]] == -HALF


def test_decompose_reports_subalgebra_part():
    pb = build("A3", (2,)).pbasis
    gk = pb.gamma_k[0]
    x = pb.cb.E(gk) + pb.cb.H_of_root(gk) + pb.element(("p", 0))
    d = pb.decompose(x)
    assert not d.in_p
    assert d.k_e == {gk: ONE}
    assert d.k_h[0] == ONE
    assert d.coords[pb.index[("p", 0)]] == ONE
    with pytest.raises(ValueError):
        pb.coords_strict(x)
    # the projection just drops the subalgebra part
    assert pb.project_coords(x) == d.coords


def test_decompose_stores_no_zero():
    # the Cartan part is solved for every central slot at once; the slots
    # that come out zero must not be stored
    for shape, substem in (("c^4 x A2", ()), ("A3", (2,))):
        pb = build(shape, substem).pbasis
        for x in pb.vectors:
            for y in pb.vectors:
                d = pb.decompose(pb.cb.bracket(x, y))
                assert all(d.coords.values())


def inverse_decompose(pb, x):
    """(coordinates, subalgebra Cartan coefficients) of x, solved with the
    rows of `h_inverse` as the adapted basis defines them: P = d/2 - ic and
    Q = -d/2 - ic from the coefficients c of H_gamma_t and d of z_t, and
    -i times the coefficient of each u vector."""
    coords = {pb.index[("e", r)]: c for r, c in x.e.items()
              if r in pb.dp_set}
    cf = [sum((c * TowerScalar.of(row[j]) for j, c in x.cartan.items()),
              ZERO) for row in pb.h_inverse]
    nk, n_p = pb.n_k, pb.num_p
    for t in range(n_p):
        c, d = cf[nk + t], cf[nk + n_p + t]
        coords[pb.index[("p", t)]] = d * HALF - I * c
        coords[pb.index[("q", t)]] = -(d * HALF) - I * c
    for s in range(len(pb.j_vecs)):
        coords[pb.index[("u", s)]] = -I * cf[nk + 2 * n_p + s]
    return {i: c for i, c in coords.items() if c}, cf[:nk]


@pytest.mark.parametrize("shape,substem,o_k_dim", [
    ("c^4 x A2", (), 0), ("A3", (2,), 0), ("A4", (2,), 0),
    ("c^2 x A3", (2,), 2), ("c^1 x C3", (2, 3), 0)])
def test_decompose_matches_the_inverse_cartan_matrix(shape, substem,
                                                     o_k_dim):
    """Each Cartan slot's parts, summed, give what the inverse of the
    Cartan matrix gives on every Cartan basis vector, every basis vector of
    the complement and random Cartan elements with tower coefficients."""
    pb = build(shape, substem, o_k_dim).pbasis
    cb = pb.cb
    rng = random.Random(5)
    scalars = [ONE, -I, HALF, SQRT2, PYTH, EIGHTH_ROOT, TowerScalar(0, 3, 1)]
    xs = [cb.H_vec([ONE if k == j else ZERO for k in range(cb.total_rank)])
          for j in range(cb.total_rank)]
    xs += list(pb.vectors)
    for _ in range(20):
        xs.append(cb.H_vec([rng.choice(scalars + [ZERO])
                            for _ in range(cb.total_rank)])
                  + cb.E(pb.dp_plus[0]).scale(rng.choice(scalars)))
    for x in xs:
        d = pb.decompose(x)
        assert (d.coords, d.k_h) == inverse_decompose(pb, x)


def test_round_trip_check_holds_under_optimize(monkeypatch):
    """A decompose that scales one coordinate by 2 stops the basis from
    being built, also under `python -O`, which strips asserts."""
    want = "basis round trip failed at %s" % (build("A2").pbasis.labels[0],)
    decompose = PBasis.decompose

    def doubled(self, x):
        d = decompose(self, x)
        j = min(d.coords, default=None)
        if j is not None:
            d.coords[j] = d.coords[j] * 2
        return d

    monkeypatch.setattr(PBasis, "decompose", doubled)
    with pytest.raises(ValueError) as exc:
        PBasis(make_pair_spec("A2"))
    assert str(exc.value) == want
    monkeypatch.undo()
    script = ("from stemhc.hcstruct import PBasis\n"
              "from stemhc.pairs import make_pair_spec\n"
              "decompose = PBasis.decompose\n"
              "def doubled(self, x):\n"
              "    d = decompose(self, x)\n"
              "    j = min(d.coords, default=None)\n"
              "    if j is not None:\n"
              "        d.coords[j] = d.coords[j] * 2\n"
              "    return d\n"
              "PBasis.decompose = doubled\n"
              "try:\n"
              "    PBasis(make_pair_spec('A2'))\n"
              "except ValueError as exc:\n"
              "    print(exc)\n")
    assert run_python(script, "-O") == want


def test_round_trip_check_names_a_leak_into_k(monkeypatch):
    want = "basis element %s leaks into k" % (build("A2").pbasis.labels[0],)
    decompose = PBasis.decompose

    def leaky(self, x):
        d = decompose(self, x)
        d.k_e = {"leak": ONE}
        return d

    monkeypatch.setattr(PBasis, "decompose", leaky)
    with pytest.raises(ValueError) as exc:
        PBasis(make_pair_spec("A2"))
    assert str(exc.value) == want


def test_cartan_split_checks_raise_under_optimize():
    """A central slice of the complement of the wrong size stops the basis
    from being built, also under -O."""
    # the third kernel A2 asks for is the complement's central slice
    script = ("import stemhc.hcstruct as h\n"
              "from stemhc.pairs import make_pair_spec\n"
              "kernel_inside = h._kernel_inside\n"
              "calls = []\n"
              "def shrunk(span_rows, functional_rows):\n"
              "    calls.append(functional_rows)\n"
              "    out = kernel_inside(span_rows, functional_rows)\n"
              "    return out[1:] if len(calls) == 3 else out\n"
              "h._kernel_inside = shrunk\n"
              "try:\n"
              "    h.PBasis(make_pair_spec('A2'))\n"
              "except AssertionError as exc:\n"
              "    print(exc, len(calls))\n")
    for flags in ((), ("-O",)):
        assert run_python(script, *flags) == \
            "central slice of the complement has dimension 0, expected 1 3"


def test_foreign_inputs_raise_under_optimize():
    """An element or a rotation of another basis, a root that is neither in
    the complement nor in the subalgebra, and a basis built over another
    root system than its stem are refused, also under -O.  Under -O the
    first used to project to {} and the rotation to fail with a KeyError."""
    script = ("import stemhc.hcstruct as h\n"
              "from stemhc.chevalley import make_basis\n"
              "from stemhc.pairs import make_pair_spec\n"
              "from stemhc.rootsystems import Root, build_cached, parse_shape\n"
              "from stemhc.stem import stem_of\n"
              "def attempt(make):\n"
              "    try:\n"
              "        make()\n"
              "    except (AssertionError, ValueError) as exc:\n"
              "        print(type(exc).__name__, exc)\n"
              "pb = h.PBasis(make_pair_spec('A2'))\n"
              "b2 = make_basis(parse_shape('B2'))\n"
              "attempt(lambda: pb.project_coords(b2.E(Root(0, (1, 2)))))\n"
              "a = pb.dp_plus[0]\n"
              "pb.dp_set = set()\n"
              "attempt(lambda: pb.decompose(pb.cb.E(a)))\n"
              "attempt(lambda: h.root_rotation(pb.cb, a).compose(\n"
              "    h.root_rotation(b2, Root(0, (1, 0)))))\n"
              "build_cached.cache_clear()\n"
              "stem_of.cache_clear()\n"
              "attempt(lambda: h.PBasis(make_pair_spec('A2')))\n")
    want = ["ValueError element of another Chevalley basis",
            "ValueError unknown root 0:(0,1)",
            "ValueError rotations of different Chevalley bases",
            "AssertionError the basis and the stem hold different root "
            "systems"]
    for flags in ((), ("-O",)):
        assert run_python(script, *flags).splitlines() == want


# c^m x (one simple factor) and A2-A7: central tori on both sides of the pair
TORUS_SWEEP = (["c^%d x %s" % (m, t) for m in range(1, 6)
                for t in ("A1", "A3", "B2", "C3", "G2")]
               + ["A%d" % n for n in range(2, 8)])


def accepted_torus_pairs():
    """Every accepted pair of TORUS_SWEEP, each substem with every o_k_dim
    check_pair allows."""
    out = []
    for text in TORUS_SWEEP:
        sh = parse_shape(text)
        for sub in enumerate_substems(stem_of(sh)):
            ok_dim = 0
            while True:
                spec = PairSpec(sh, sub.indices, ok_dim)
                try:
                    verdict = check_pair(spec).verdict
                except ValueError:        # past the central directions
                    break
                if verdict:
                    out.append(spec)
                ok_dim += 1
    return out


def test_complement_torus_is_the_orthogonal_central_slice():
    """z_vecs + j_vecs is h_k^perp inside the common kernel of the stem
    roots, computed here directly: the kernel of the K-pairings with a basis
    of h_k together with every stem root, in RREF."""
    specs = accepted_torus_pairs()
    assert len(specs) == 74
    shapes_seen = set()
    for spec in specs:
        pb = PBasis(spec)
        cb = pb.cb
        K = cb.killing_h
        torus = pb.z_vecs + pb.j_vecs
        for v in torus:
            cartan = cb.H_vec(v).cartan
            for g in pb.stem.elements:
                assert cb.eval_root(g, cartan) == ZERO
            for r in pb.dk_set:
                assert cb.eval_root(r, cartan) == ZERO
            for w in pb.o_k:
                assert sum(x * y for x, y in zip(linalg.mat_vec(K, w), v)) \
                    == 0
        h_k = [list(map(Fraction, cb.hroot[g])) for g in pb.gamma_k] + pb.o_k
        rows = [linalg.mat_vec(K, w) for w in h_k]
        rows += [hcstruct.root_functional(cb, g) for g in pb.stem.elements]
        oracle = linalg.rref(linalg.kernel_basis(rows, cb.total_rank))[0]
        assert torus == oracle, spec
        shapes_seen.add((len(pb.o_k) > 0, len(pb.j_vecs) > 0))
    assert shapes_seen == {(False, False), (True, False), (False, True),
                           (True, True)}



def test_every_accepted_torus_pair_verifies():
    """The structure on every accepted pair of TORUS_SWEEP passes the whole
    battery: the pairs with central directions in g, in k, or in both."""
    specs = accepted_torus_pairs()
    assert len(specs) == 74
    failed = [spec_id(s) for s in specs
              if not build_structure(s).verify_all().ok]
    assert failed == []

def test_w_and_z_elements():
    pb = build("A4", (2,)).pbasis
    for t in range(pb.num_p):
        w, z = pb.w_element(t), pb.z_element(t)
        assert pb.element(("p", t)) == w - z.scale(I)
        assert pb.element(("q", t)) == w + z.scale(I)
        assert w.scale(I) + w.scale(I) + pb.cb.H_of_root(pb.gamma_p[t]) \
            == pb.cb.zero()


def test_phase_normalization_and_errors():
    spec = make_pair_spec("A2")
    th = stem_of(spec.shape).elements[0]
    assert PBasis(spec, phases=TowerScalar.parse("i")).phases[th] == I
    assert PBasis(spec, phases=PYTH).phases.popitem()[1] == PYTH
    with pytest.raises(ValueError):
        PBasis(spec, phases=2)
    with pytest.raises(ValueError):
        PBasis(spec, phases=TowerScalar.parse("1+i"))
    with pytest.raises(ValueError):
        PBasis(spec, phases=[ONE, I])
    with pytest.raises(ValueError):
        PBasis(spec, phases={Root(0, (1, 0)): ONE})
    rho = TowerScalar.parse("1/2sqrt2 + 1/2isqrt2")
    assert PBasis(spec, phases={th: rho}).phases[th] == EIGHTH_ROOT


def test_rejected_pair_builds_nothing():
    for text, substem in (("A3", ()), ("A2", (1,))):
        with pytest.raises(ValueError, match="fails the criterion"):
            build(text, substem)


# --------------------------------------------------------- structure values


def test_j_on_stem_root_vectors():
    for rho in (ONE, I, EIGHTH_ROOT, PYTH):
        hc = build("A2", phases=rho)
        pb = hc.pbasis
        th = pb.gamma_p[0]
        assert hc.apply_j(pb.cb.E(th)) == pb.element(("q", 0)).scale(rho.conj())
        assert hc.apply_j(pb.cb.E(-th)) == pb.element(("p", 0)).scale(-rho)
        assert hc.apply_j(pb.element(("q", 0))) == pb.cb.E(th).scale(-rho)
        assert hc.apply_j(pb.element(("p", 0))) == \
            pb.cb.E(-th).scale(rho.conj())


def test_i_on_root_vectors_by_wing_sign():
    hc = build("A3", (2,))
    pb = hc.pbasis
    for a in pb.dp_plus:
        assert hc.apply_i(pb.cb.E(a)) == pb.cb.E(a, I)
        assert hc.apply_i(pb.cb.E(-a)) == pb.cb.E(-a, -I)
    assert hc.apply_i(pb.element(("p", 0))) == pb.element(("p", 0)).scale(I)
    assert hc.apply_i(pb.element(("q", 0))) == pb.element(("q", 0)).scale(-I)


def test_su3_wing_coupling_literals():
    # the extraspecial sign convention pins N(theta, -alpha1) = +1, so the
    # second structure sends E_alpha1 to i E_{-alpha2} and E_alpha2 to
    # -i E_{-alpha1}
    hc = build("A2")
    pb = hc.pbasis
    a2, a1, th = pb.dp_plus
    assert hc.apply_j(pb.cb.E(a1)) == pb.cb.E(-a2, I)
    assert hc.apply_j(pb.cb.E(a2)) == pb.cb.E(-a1, -I)
    assert hc.apply_j(pb.cb.E(-a1)) == pb.cb.E(a2, -I)
    assert hc.apply_j(pb.cb.E(-a2)) == pb.cb.E(a1, I)
    # the dense view puts the image of a label in its column
    assert hc.j_matrix[pb.index[("e", -a2)]][pb.index[("e", a1)]] == I
    coup = root_coupling_matrix(hc)
    assert coup == {(a2, a1): I, (a1, a2): -I}


def test_central_block_rotates_in_quadruples():
    hc = build("c^4 x A2")
    pb = hc.pbasis
    u = [pb.element(("u", s)) for s in range(4)]
    assert hc.apply_i(u[0]) == u[1] and hc.apply_i(u[1]) == -u[0]
    assert hc.apply_i(u[2]) == u[3] and hc.apply_i(u[3]) == -u[2]
    assert hc.apply_j(u[0]) == u[2] and hc.apply_j(u[2]) == -u[0]
    assert hc.apply_j(u[1]) == -u[3] and hc.apply_j(u[3]) == u[1]


def test_compact_generator_images():
    hc = build("A4", (2,), phases=EIGHTH_ROOT)
    pb = hc.pbasis
    cb = pb.cb
    for t, g in enumerate(pb.gamma_p):
        rho = pb.phases[g]
        assert hc.apply_j(cb.X(g, rho)) == pb.w_element(t)
        assert hc.apply_j(pb.z_element(t)) == cb.Y(g, rho)
        assert hc.apply_i(pb.w_element(t)) == pb.z_element(t)


def test_coupling_report_and_closed_form():
    hc = build("A4", (2,), phases=I)
    assert verify_root_coupling(hc).ok
    coup = root_coupling_matrix(hc)
    pb = hc.pbasis
    gset = set(pb.gamma_p)
    for (a, b) in coup:
        assert a.comp == b.comp
        s = a.comp, tuple(x + y for x, y in zip(a.coords, b.coords))
        assert any(g.comp == s[0] and g.coords == s[1] for g in gset)


def test_coupling_applies_j_once_per_free_stem_root(monkeypatch):
    """The closed form's denominator depends only on the stem root g, so
    J(E_g) is made once per g, not once per coupled pair (30 on SU(17)/SU(15),
    which has one free stem root)."""
    hc = build("A16", (2,), phases=EIGHTH_ROOT)
    calls = []
    apply_j = HCStructure.apply_j

    def counted(self, x):
        calls.append(x)
        return apply_j(self, x)

    monkeypatch.setattr(HCStructure, "apply_j", counted)
    rep = verify_root_coupling(hc)
    assert rep.ok and rep.items[0].checked == len(hc.pbasis.dp_plus) ** 2
    assert len(hc.pbasis.gamma_p) == 1
    assert len(calls) <= len(hc.pbasis.gamma_p)


# ---------------------------------------------------------- the full battery


@pytest.mark.parametrize("shape,substem,o_k_dim", ACCEPTED)
def test_battery_on_accepted_pairs(shape, substem, o_k_dim):
    for rho in (ONE, I, EIGHTH_ROOT):
        hc = build(shape, substem, o_k_dim, phases=rho)
        rep = hc.verify_all()
        assert rep.ok, rep.summary()


def test_battery_with_mixed_and_pythagorean_phases():
    hc = build("A2 x A2", phases=[PYTH, EIGHTH_ROOT])
    assert hc.pbasis.num_p == 2
    assert hc.verify_all().ok


def test_verifiers_catch_a_corrupted_operator():
    good = build("A2")
    pb = good.pbasis
    m = [row[:] for row in good.j_matrix]
    r = pb.index[("e", -pb.dp_plus[0])]
    c = pb.index[("e", pb.dp_plus[1])]
    m[r][c] = -m[r][c]
    bad = HCStructure(pb, good.i_cols, sparse_cols(m), good.tau_cols)
    assert not verify_operator_identities(bad).ok
    assert not verify_root_coupling(bad).ok
    assert not verify_wing_restriction(bad).ok
    m2 = [row[:] for row in good.j_matrix]
    m2[pb.index[("e", -pb.gamma_p[0])]][pb.index[("e", pb.gamma_p[0])]] = ONE
    bad2 = HCStructure(pb, good.i_cols, sparse_cols(m2), good.tau_cols)
    assert not verify_root_coupling(bad2).ok


def test_mirror_check_catches_a_sign_on_the_conjugation():
    # negating both columns of one 2-cycle keeps tau an involution, but it
    # no longer matches the compact conjugation at those two labels
    hc = build("A2")
    pb = hc.pbasis
    a = pb.index[("e", pb.dp_plus[0])]
    (b,) = hc.tau_cols[a]
    t = [{i: -v for i, v in col.items()} if j in (a, b) else col
         for j, col in enumerate(hc.tau_cols)]
    broken = HCStructure(pb, hc.i_cols, hc.j_cols, t)
    items = {it.name: it for it in verify_operator_identities(broken).items}
    assert items["conjugation matrix is an involution"].ok
    assert items["conjugation matrix mirrors the compact conjugation"] \
        .violations == ["conjugate of %s disagrees with the matrix"
                        % (pb.labels[j],) for j in sorted((a, b))]


def test_operator_checks_accept_explicit_zeros_in_caller_columns():
    # HCStructure takes any sparse columns; a stored zero is still zero
    hc = build("A2")
    n = len(hc.pbasis.labels)
    pad = [dict(col) for col in hc.tau_cols]
    for j, col in enumerate(pad):
        col.setdefault((j + 1) % n, ZERO)
    padded = HCStructure(hc.pbasis, hc.i_cols, hc.j_cols, pad)
    assert verify_operator_identities(padded).ok


def test_sparse_apply_drops_cancelled_entries():
    """On no, one and several entries, with zeros stored in the columns,
    the sparse image is the dense product with its zeros dropped."""
    cols = [{0: ONE, 1: ONE}, {0: -ONE, 1: ONE}]
    assert _apply_cols(cols, {0: ONE, 1: ONE}) == {1: TowerScalar.of(2)}
    assert _apply_cols(cols, {}) == {}
    rng = random.Random(3)
    values = [ZERO, ONE, -I, HALF, PYTH, SQRT2]
    n = 5
    cols = [{i: rng.choice(values) for i in rng.sample(range(n), k)}
            for k in (0, 1, 2, 3, 5)]
    dense = _dense_view(cols)
    for k in (0, 1, 1, 2, 5):
        coords = {j: rng.choice(values[1:]) for j in rng.sample(range(n), k)}
        want = {i: v for i in range(n)
                if (v := sum((dense[i][j] * c for j, c in coords.items()),
                             ZERO))}
        assert _apply_cols(cols, coords) == want


def test_eigenspaces_split_the_complement():
    """The eigenvectors read off the cycles of a monomial map are the
    kernel basis of its dense eigenspace, vector for vector; a map that is
    not monomial goes through the dense kernel.  Each structure splits the
    complement into its two eigenspaces."""
    def dense_kernel(cols, sign):
        return [{i: c for i, c in enumerate(v) if c}
                for v in eigenspace(_dense_view(cols), sign)]

    for shape, substem, o_k_dim in ACCEPTED:
        for rho in (ONE, I, EIGHTH_ROOT):
            hc = build(shape, substem, o_k_dim, phases=rho)
            n = len(hc.pbasis.labels)
            # a J with one column negated no longer squares to -1: that
            # 2-cycle has no eigenvector
            one_column = [{i: -v for i, v in col.items()} if j == 0 else col
                          for j, col in enumerate(hc.j_cols)]
            for cols in (hc.i_cols, hc.j_cols, negated_two_cycle(hc).j_cols,
                         one_column):
                for sign in (1, -1):
                    assert _eigenvectors(cols, sign) == dense_kernel(cols,
                                                                     sign)
            for m in (hc.i_matrix, hc.j_matrix):
                plus = eigenspace(m, 1)
                minus = eigenspace(m, -1)
                assert len(plus) == len(minus) == n // 2
                assert Span(plus + minus, n).dim == n
    # J conjugated by the shear e_1 -> e_1 + e_0 has a column with two
    # entries: still a complex structure, with the same eigenspace sizes
    hc = build("A3", (2,), phases=EIGHTH_ROOT)
    n = len(hc.pbasis.labels)
    shear = [{j: ONE} for j in range(n)]
    unshear = [{j: ONE} for j in range(n)]
    shear[1] = {0: ONE, 1: ONE}
    unshear[1] = {0: -ONE, 1: ONE}
    cols = _compose_cols(shear, _compose_cols(hc.j_cols, unshear))
    assert max(len(col) for col in cols) > 1
    for sign, lam in ((1, I), (-1, -I)):
        vecs = _eigenvectors(cols, sign)
        assert vecs == dense_kernel(cols, sign)
        assert len(vecs) == n // 2
        assert all(_apply_cols(cols, v) == {i: lam * c for i, c in v.items()}
                   for v in vecs)
    # J after swapping e_0 and e_1 is monomial, but with a 4-cycle
    swap = [{1: ONE}, {0: ONE}] + [{j: ONE} for j in range(2, n)]
    cols = _compose_cols(hc.j_cols, swap)
    assert all(len(col) == 1 for col in cols)
    assert cols[next(iter(cols[0]))].keys() != {0}
    for sign in (1, -1):
        assert _eigenvectors(cols, sign) == dense_kernel(cols, sign)


def test_compact_basis_spans_everything():
    pb = build("A2 x A2").pbasis
    n = len(pb.labels)
    vecs = [[c.get(i, ZERO) for i in range(n)]
            for c in (pb.coords_strict(x) for _, x in compact_basis(pb))]
    assert len(vecs) == n
    assert Span(vecs, n).dim == n


def test_subalgebra_basis_contents():
    pb = build("c^2 x A3", (2,), o_k_dim=2).pbasis
    kinds = [lab[0] for lab, _ in subalgebra_basis(pb)]
    assert kinds.count("e") == 2
    assert kinds.count("h") == 1
    assert kinds.count("o") == 2


# ------------------------------------------------------------ root rotations


def test_su2_rotation_literals():
    cb = make_basis(parse_shape("A1"))
    st = stem_of(parse_shape("A1"))
    g = st.elements[0]
    rot = root_rotation(cb, g)
    E, H = cb.E, cb.H_of_root
    assert rot.apply(E(g)) == (E(g) - E(-g) + H(g)).scale(HALF)
    assert rot.apply(E(-g)) == (E(-g) - E(g) + H(g)).scale(HALF)
    assert rot.apply(H(g)) == (E(g) + E(-g)).scale(-1)
    # fourth power is the identity on the root vectors, square is not
    r2 = rot.compose(rot)
    r4 = r2.compose(r2)
    assert r4.apply(E(g)) == E(g)
    assert r2.apply(E(g)) == -E(-g)


def test_rotation_rejects_bad_input():
    cb = make_basis(parse_shape("A2"))
    st = stem_of(parse_shape("A2"))
    with pytest.raises(ValueError):
        root_rotation(cb, Root(0, (2, 2)))
    with pytest.raises(ValueError):
        root_rotation(cb, st.elements[0], rho=TowerScalar.parse("1+i"))


def test_rotation_battery_small_types():
    for text in ("A2", "A3", "B2", "G2"):
        cb = make_basis(parse_shape(text))
        st = stem_of(parse_shape(text))
        for g in st.elements:
            rep = verify_rotation(cb, st, g, rho=EIGHTH_ROOT)
            assert rep.ok, "%s %s: %s" % (text, g, rep.summary())


def test_eighth_power_is_the_identity():
    # ad X_gamma has its eigenvalues in (i/2)Z, so exp(4 pi ad X_gamma) = 1;
    # in these types some root string along gamma has length two, which
    # gives the eigenvalue i/2, so no lower power is the identity
    for text in ("B2", "G2", "A3"):
        cb = make_basis(parse_shape(text))
        st = stem_of(parse_shape(text))
        identity = rotation_product(cb, [])
        for g in st.elements:
            rot = root_rotation(cb, g, rho=EIGHTH_ROOT)
            powers = [rot]
            for _ in range(7):
                powers.append(rot.compose(powers[-1]))
            assert [p == identity for p in powers] == [False] * 7 + [True], \
                "%s %s" % (text, g)


# exp(i 3pi/4) (-5 + 12i)/13: a unit phase with sqrt2, i and an odd prime in
# its denominator
TWISTED = EIGHTH_ROOT * EIGHTH_ROOT * EIGHTH_ROOT \
    * TowerScalar(Fraction(-5, 13), Fraction(12, 13))


@pytest.mark.parametrize("text",
                         ["G2", "B3", "C3", "F4", "c^1 x B2", "A2 x B2"])
def test_folded_rotation_equals_the_degree_six_polynomial(text):
    """On every root, short ones and those with long strings included, at
    every phase, the rotation rephased from the phase one gives the images
    of sum c_k (ad X_rho)^k w over k <= 6."""
    cb = make_basis(parse_shape(text))
    poly = _rotation_poly()
    for g in sorted(cb.rs.roots, key=Root.key):
        for rho in (ONE, I, EIGHTH_ROOT, PYTH, TWISTED):
            x = cb.X(g, rho)
            want = []
            for key in cb.basis_keys:
                chain = [cb.basis_element(key)]
                for _ in poly[1:]:
                    chain.append(cb.bracket(x, chain[-1]))
                want.append(cb.combine(zip(poly, chain)))
            assert root_rotation(cb, g, rho).images == tuple(want), (g, rho)
    # the eigenvalues of (ad X)^2 are -k^2/4 for |k| <= 3: the chains stop
    # at a handful of (m, lam), the same for every root and phase
    assert hcstruct._folded_poly.cache_info().currsize <= 4
    grades = {j for moved in cb.rotations.values()
              for cartan, e in moved.values() for _, _, j in cartan + e}
    assert grades <= set(range(-3, 4))
    if text == "G2":
        assert {-3, 3} <= grades


def test_rotation_is_built_once_per_basis_and_root(monkeypatch):
    """A fresh basis builds each rotation at its first call; a call at
    another phase only rephases, with no bracket, and the moved dict a call
    returns is its own."""
    cb = ChevalleyBasis(build_cached(parse_shape("B3")))
    brackets = []
    bracket = cb.bracket

    def counted(x, y):
        brackets.append(1)
        return bracket(x, y)

    monkeypatch.setattr(cb, "bracket", counted)
    g = max(cb.rs.positives, key=lambda r: r.height)
    first = root_rotation(cb, g, PYTH)
    assert brackets and list(cb.rotations) == [g]
    del brackets[:]
    twisted = root_rotation(cb, g, TWISTED)
    assert not brackets
    assert root_rotation(cb, g, ONE) == root_rotation(cb, g)
    assert not brackets
    want = twisted.images
    k = cb.key_index[("e", g)]
    first.moved[k] = cb.zero()
    twisted.moved[k] = cb.zero()
    twisted.moved[cb.key_index[("h", 0)]] = cb.E(g)
    assert root_rotation(cb, g, TWISTED).images == want
    assert root_rotation(cb, g, PYTH).images[k] != cb.zero()


def test_rotation_matches_float_exponential():
    for text in ("A2", "B2", "G2", "A3", "D4"):
        cb = make_basis(parse_shape(text))
        st = stem_of(parse_shape(text))
        for g in st.elements:
            assert rotation_float_error(cb, g, rho=I) < 1e-10


def test_rotation_product_spans():
    for text in ("A3", "A4", "D4"):
        cb = make_basis(parse_shape(text))
        st = stem_of(parse_shape(text))
        rep = verify_rotation_spans(cb, st)
        assert rep.ok, "%s: %s" % (text, rep.summary())


@pytest.mark.parametrize("text", ["B4", "A3"])
def test_rotation_spans_broadcast_a_single_phase(text):
    cb = make_basis(parse_shape(text))
    st = stem_of(parse_shape(text))
    rep = verify_rotation_spans(cb, st, EIGHTH_ROOT)
    same = verify_rotation_spans(cb, st, {g: EIGHTH_ROOT for g in st.elements})
    assert rep.ok, "%s: %s" % (text, rep.summary())
    assert rep.to_dict() == same.to_dict()


def test_rotation_spans_take_one_phase_per_root_in_order():
    cb = make_basis(parse_shape("A3"))
    st = stem_of(parse_shape("A3"))
    phases = [I, EIGHTH_ROOT]
    rep = verify_rotation_spans(cb, st, phases)
    same = verify_rotation_spans(cb, st, dict(zip(st.elements, phases)))
    assert rep.ok, rep.summary()
    assert rep.to_dict() == same.to_dict()
    with pytest.raises(ValueError):
        verify_rotation_spans(cb, st, [I])
    with pytest.raises(ValueError):
        rotation_product(cb, st.elements, (I, I, I))


@pytest.mark.parametrize("phases", [{Root(0, (1, 0, 0)): I},
                                    TowerScalar.parse("1+i")],
                         ids=["non-stem-root", "non-unit"])
def test_rotation_entry_points_refuse_phases_the_basis_refuses(phases):
    """A phase for a root outside the stem, or one off the unit circle, is
    refused by the rotation entry points with the adapted basis's message.
    On A3 substem 2 the free stem root is the first stem root, so the
    messages agree word for word."""
    spec = make_pair_spec("A3", (2,))
    cb, st = make_basis(spec.shape), stem_of(spec.shape)
    g = st.elements[0]
    with pytest.raises(ValueError) as want:
        PBasis(spec, phases=phases)
    for call in (lambda: rotation_product(cb, st.elements, phases),
                 lambda: verify_rotation_spans(cb, st, phases),
                 lambda: root_rotation(cb, g, phases),
                 lambda: verify_rotation(cb, st, g, phases)):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("rho,unit", [
    (ONE, True), (I, True), (EIGHTH_ROOT, True), (PYTH, True),
    (ZERO, False), (TowerScalar(2), False), (SQRT2, False)],
    ids=["1", "i", "zeta8", "3+4i over 5", "0", "2", "sqrt2"])
def test_basis_and_phase_map_share_one_unit_check(rho, unit):
    """`ChevalleyBasis.X` and `_phase_map` accept the same phases, and
    refuse the same ones, each with its own message."""
    cb = make_basis(parse_shape("A2"))
    g = cb.rs.positives[-1]
    if unit:
        assert cb.X(g, rho).e[g] == rho * HALF
        assert hcstruct._phase_map([g], rho) == {g: rho}
        return
    with pytest.raises(ValueError) as exc:
        cb.X(g, rho)
    assert str(exc.value) == "phase is not unit modulus: %s" % (rho,)
    with pytest.raises(ValueError) as exc:
        hcstruct._phase_map([g], rho)
    assert str(exc.value) == "phase for %s is not unit modulus: %s" % (g, rho)


def test_every_verifier_returns_only_its_report():
    """Each public verifier returns a CheckReport, and nothing with it."""
    names = sorted(n for n in dir(hcstruct) if n.startswith("verify_"))
    on_rotations = ["verify_rotation", "verify_rotation_spans"]
    hc = build("A4", (2,))
    cb, st = make_basis(parse_shape("B2")), stem_of(parse_shape("B2"))
    results = {n: getattr(hcstruct, n)(hc) for n in names
               if n not in on_rotations}
    results["verify_rotation"] = verify_rotation(cb, st, st.elements[0])
    results["verify_rotation_spans"] = verify_rotation_spans(cb, st)
    results["verify_all"] = hc.verify_all()
    assert sorted(results) == sorted(names + ["verify_all"])
    for name, rep in results.items():
        assert type(rep) is CheckReport, name
        assert rep.ok, rep.summary()


def test_zero_partner_vectors_pad_small_kernels():
    cb = make_basis(parse_shape("B2"))
    st = stem_of(parse_shape("B2"))
    assert stem_central_kernel(cb, st) == []
    zs = stem_z_vectors(cb, st)
    assert all(all(x == 0 for x in v) for v in zs)
    assert verify_rotation_spans(cb, st).ok


def test_eigenspace_transport_for_accepted_pairs():
    for shape, substem, o_k_dim in ACCEPTED:
        hc = build(shape, substem, o_k_dim, phases=EIGHTH_ROOT)
        rep = verify_eigenspace_transport(hc)
        assert rep.ok, "%s: %s" % (shape, rep.summary())


def test_product_rotation_commutes_pairwise():
    cb = make_basis(parse_shape("A4"))
    st = stem_of(parse_shape("A4"))
    rots = [root_rotation(cb, g, rho=I) for g in st.elements]
    assert rots[0].compose(rots[1]) == rots[1].compose(rots[0])
    prod = rotation_product(cb, st.elements, I)
    assert prod == rots[0].compose(rots[1])


def test_integrability_report_items():
    hc = build("A2", phases=EIGHTH_ROOT)
    rep = verify_integrability(hc)
    assert rep.ok
    names = [it.name for it in rep.items]
    assert any("torsion" in n for n in names)
    assert sum("eigenspace" in n for n in names) >= 4


@pytest.mark.parametrize("shape,substem,pairs,k", [
    ("A2", (), 28, 1), ("A3", (2,), 66, 3), ("A4", (2,), 120, 5)])
def test_integrability_fails_on_a_negated_two_cycle(shape, substem, pairs, k):
    """J with the 2-cycle through the first positive root negated still
    squares to -1, but its torsion and eigenspace brackets fail."""
    hc = build(shape, substem)
    pb = hc.pbasis
    broken = negated_two_cycle(hc)
    assert next(it for it in verify_operator_identities(broken).items
                if it.name.startswith("second structure squares")).ok
    items = verify_integrability(broken).items
    assert [it.ok for it in items] == [True, True, False, False, True, False]
    for it, sign in ((items[2], "+i"), (items[3], "-i")):
        assert it.violation_count == 3
        assert it.violations == [
            "bracket of vectors %d,%d leaves the %s eigenspace" % (u, v, sign)
            for u, v in ((0, k), (k, k + 1), (k, k + 2))]
    # the failing pairs, as the four-projection loop listed them
    r, g = pb.dp_plus[0], pb.gamma_p[0]
    xa, ya = "x_%s" % (r,), "y_%s" % (r,)
    xb, yb = "x_%s" % (root_sub(g, r),), "y_%s" % (root_sub(g, r),)
    xg, w = "x_%s" % (g,), "w_0"
    torsion = items[5]
    assert torsion.checked == pairs
    assert torsion.violation_count == 12
    assert torsion.violations == [
        "torsion of %s, %s is not zero" % pair
        for pair in ((xa, ya), (xa, yb), (xa, xg), (xa, w), (ya, xb),
                     (ya, xg), (ya, w), (xb, yb), (xb, xg), (xb, w),
                     (yb, xg), (yb, w))]


@pytest.mark.parametrize("broken", ["negated", "scalar"])
@pytest.mark.parametrize("shape,substem", [
    ("A2", ()), ("A4", (2,)), ("c^4 x A2", ())])
def test_transport_fails_on_a_broken_two_cycle(shape, substem, broken):
    """A J with one 2-cycle negated moves both eigenspaces off the rotated
    polarization.  A J that is i on that 2-cycle keeps every rotated +i
    vector an eigenvector, but its +i eigenspace has one dimension more.
    The rotation checks do not read J."""
    hc = build(shape, substem, phases=EIGHTH_ROOT)
    if broken == "negated":
        hc = negated_two_cycle(hc)
    else:
        pb = hc.pbasis
        a = pb.index[("e", pb.dp_plus[0])]
        (b,) = hc.j_cols[a]
        cols = [{j: I} if j in (a, b) else col
                for j, col in enumerate(hc.j_cols)]
        hc = HCStructure(pb, hc.i_cols, cols, hc.tau_cols)
    items = verify_eigenspace_transport(hc).items
    assert [it.ok for it in items] == [True, True, False, False]
    for it, sign in zip(items[2:], ("+i", "-i")):
        assert it.violation_count == 1
        assert it.violations == [
            "transported span differs from the %s eigenspace" % sign]


def transport_leaks(monkeypatch, leak, n):
    """The failing transport items on A3 substem 2 at zeta8 when the product
    rotation gives n subalgebra root-vector images a complement part
    (leak="subalgebra"), or n complement root-vector images a subalgebra
    part, and the one item expected to fail."""
    hc = build("A3", (2,), phases=EIGHTH_ROOT)
    pb = hc.pbasis
    ks = sorted(pb.dk_set, key=Root.key)[:n]
    ps = [pb.dp_plus[0], -pb.dp_plus[0]][:n]
    keys, extra = (ks, ps[0]) if leak == "subalgebra" else (ps, ks[0])
    product = hcstruct.rotation_product

    def leaky(cb, gammas, phases=None):
        prod = product(cb, gammas, phases)
        for key in keys:
            k = cb.key_index[("e", key)]
            prod.moved[k] = prod.image(k) + cb.E(extra)
        return prod

    monkeypatch.setattr(hcstruct, "rotation_product", leaky)
    items = [it.to_dict() for it in verify_eigenspace_transport(hc).items]
    want = {"subalgebra": {
        "name": "product rotation preserves the subalgebra",
        "checked": len(subalgebra_basis(pb)), "ok": False,
        "violations": ["subalgebra span moved"], "violation_count": n},
        "complement": {
        "name": "product rotation preserves the complement",
        "checked": len(pb.labels), "ok": False,
        "violations": ["complement span moved"], "violation_count": n}}
    return [it for it in items if not it["ok"]], want[leak]


@pytest.mark.parametrize("leak", ["subalgebra", "complement"])
def test_transport_catches_an_image_that_leaves_its_summand(monkeypatch,
                                                            leak):
    """The product rotation with the image of a subalgebra root vector
    given a complement part, or the reverse; a leak out of the complement
    is reported, not raised."""
    failing, want = transport_leaks(monkeypatch, leak, 1)
    assert failing == [want]


@pytest.mark.parametrize("leak", ["subalgebra", "complement"])
def test_transport_counts_every_leaking_image(monkeypatch, leak):
    """Two images leak out of their summand; the item counts both under its
    one description."""
    failing, want = transport_leaks(monkeypatch, leak, 2)
    assert failing == [want]


@pytest.mark.parametrize("moved", ["wing", "stem"])
def test_rotation_checks_catch_an_image_outside_its_block(monkeypatch, moved):
    """The first stem rotation of A4 with one image pushed out of its block:
    a wing vector of the second stem root gains E_gamma, or E_gamma gains
    that wing vector."""
    cb = make_basis(parse_shape("A4"))
    st = stem_of(parse_shape("A4"))
    g, d = st.elements
    a = min(st.phi[d], key=Root.key)
    key, extra = (("e", a), cb.E(g)) if moved == "wing" else \
        (("e", g), cb.E(a))
    rotation = hcstruct.root_rotation

    def pushed(cb, gamma, rho=ONE):
        rot = rotation(cb, gamma, rho)
        if gamma == g:
            k = cb.key_index[key]
            rot.moved[k] = rot.image(k) + extra
        return rot

    monkeypatch.setattr(hcstruct, "root_rotation", pushed)
    block = verify_rotation(cb, st, g, rho=EIGHTH_ROOT).items[-1]
    assert block.to_dict() == {
        "name": "other wing blocks and the own sl2 stay setwise invariant",
        "checked": 3, "ok": False,
        "violations": ["wing block of %s not setwise invariant" % (d,)
                       if moved == "wing"
                       else "own sl2 block not setwise invariant"],
        "violation_count": 1}
    wing_spans, planes = verify_rotation_spans(cb, st, EIGHTH_ROOT).items
    bad, good = (wing_spans, planes) if moved == "wing" else \
        (planes, wing_spans)
    assert good.ok
    assert bad.violation_count == 1
    assert bad.violations == (["wing span of %s" % (d,)] if moved == "wing"
                              else ["twisted plane of %s" % (g,)])


def test_verifiers_build_no_dense_span(monkeypatch):
    """Once the structures are built, the verifiers build no Span, and the
    only row reductions left are the rational kernels on the Cartan
    subalgebra, with rows of length total_rank."""
    jobs = []
    for shape, substem in (("A4", (2,)), ("c^4 x A2", ())):
        hc = build(shape, substem, phases=EIGHTH_ROOT)
        jobs.append((hc.cb.total_rank, hc.verify_all))
    cb = make_basis(parse_shape("B4"))
    st = stem_of(parse_shape("B4"))
    for g in st.elements:
        jobs.append((cb.total_rank,
                     lambda g=g: verify_rotation(cb, st, g, rho=EIGHTH_ROOT)))
    jobs.append((cb.total_rank, lambda: verify_rotation_spans(cb, st)))
    _rotation_poly()      # the rotations' interpolation, solved once
    spans, reduced = [], []
    span_init = linalg.Span.__init__

    def counted_span(self, *args, **kwargs):
        spans.append(args)
        span_init(self, *args, **kwargs)

    rref = linalg.rref

    def counted_rref(rows):
        rows = [list(r) for r in rows]
        reduced.append(rows)
        return rref(rows)

    monkeypatch.setattr(linalg.Span, "__init__", counted_span)
    for name, module in list(sys.modules.items()):
        if name.startswith("stemhc") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is rref:
                    monkeypatch.setattr(module, attr, counted_rref)
    for rank, job in jobs:
        start = len(reduced)
        assert job().ok
        assert all(len(r) == rank for rows in reduced[start:] for r in rows)
    assert spans == []
    assert reduced
    assert all(type(x) is Fraction for rows in reduced for r in rows for x in r)


def test_failure_counts_every_wrong_entry():
    """The report counts all wrong entries, not just the ones it prints."""
    np = pytest.importorskip("numpy")
    hc = build("A4", (2,))
    pb = hc.pbasis
    n = len(pb.labels)
    # J is monomial and pairs the labels, so negating a single column breaks
    # J*J at two entries only; negate every positive root column instead
    flip = {j for j, lab in enumerate(pb.labels)
            if lab[0] == "e" and lab[1].positive}
    bad_j = [[-v if j in flip else v for j, v in enumerate(row)]
             for row in hc.j_matrix]
    broken = HCStructure(pb, hc.i_cols, sparse_cols(bad_j), hc.tau_cols)
    item = next(it for it in verify_operator_identities(broken).items
                if it.name.startswith("second structure squares"))
    m = np.array([[complex(v) for v in row] for row in bad_j])
    want = int((np.abs(m @ m + np.eye(n)) > 1e-9).sum())
    assert want > 6
    assert item.violation_count == want
    assert len(item.violations) == 6
    assert item.to_dict()["violation_count"] == want
    rep = verify_operator_identities(broken)
    assert "FAIL(%d)" % want in rep.summary()
    # negating J on two wing roots and their opposites breaks commutation
    # with ad(k) at more entries than the report samples (3 per element)
    flip = {pb.index[("e", r)] for a in pb.dp_plus[:2] for r in (a, -a)}
    bad_j = [[-v if j in flip else v for j, v in enumerate(row)]
             for row in hc.j_matrix]
    broken = HCStructure(pb, hc.i_cols, sparse_cols(bad_j), hc.tau_cols)
    item = next(it for it in verify_equivariance(broken).items
                if it.name.startswith("second structure commutes"))
    m = np.array([[complex(v) for v in row] for row in bad_j])
    want = sample = 0
    for _, x in subalgebra_basis(pb):
        ad = np.zeros((n, n), dtype=complex)
        for j, v in enumerate(pb.vectors):
            for i, c in pb.decompose(pb.cb.bracket(x, v)).coords.items():
                ad[i, j] = complex(c)
        count = int((np.abs(m @ ad - ad @ m) > 1e-9).sum())
        want += count
        sample += min(count, 3)
    assert want > sample
    assert item.violation_count == want
    assert len(item.violations) == sample


def negated_on(cols, labels, pb):
    """cols with the columns of these labels negated."""
    idx = {pb.index[lab] for lab in labels}
    return [{i: -v for i, v in col.items()} if j in idx else col
            for j, col in enumerate(cols)]


def failed_item(rep, name):
    it = next(it for it in rep.items if it.name == name)
    assert it.violation_count == len(it.violations)
    return it


@pytest.mark.parametrize("op,want", [("j", "J Z_%s is not Y"),
                                     ("i", "I W_%s is not Z")], ids=["J", "I"])
def test_compact_generator_check_names_each_broken_image(op, want):
    """I or J negated on the pair P, Q of the first free stem root of
    SU(3) x SU(3): J X is still W, but J Z is -Y (or I W is -Z), and only
    at that root."""
    hc = build("A2 x A2")
    pb = hc.pbasis
    pq = [("p", 0), ("q", 0)]
    if op == "j":
        broken = HCStructure(pb, hc.i_cols, negated_on(hc.j_cols, pq, pb),
                             hc.tau_cols)
    else:
        broken = HCStructure(pb, negated_on(hc.i_cols, pq, pb), hc.j_cols,
                             hc.tau_cols)
    it = failed_item(verify_operator_identities(broken),
                     "compact generators rotate as claimed")
    assert it.checked == 6
    assert it.violations == [want % (pb.gamma_p[0],)]


def with_subalgebra_root(hc, root):
    """hc over a copy of its basis that lists one complement root among the
    subalgebra roots, so E_root joins the acting subalgebra basis while
    every vector still decomposes as before."""
    pb = copy.copy(hc.pbasis)
    pb.dk_set = pb.dk_set | {root}
    return HCStructure(pb, hc.i_cols, hc.j_cols, hc.tau_cols)


@pytest.mark.parametrize("shape,substem,root,name,text,targets", [
    # [E_c, E_-c] = H_c has a part along the coroot of k, and
    # [E_c, E_-(0,1,1)] is a multiple of E_-(0,1,0), a root vector of k
    ("A3", (2,), (0, 0, 1), "subalgebra brackets stay inside the complement",
     "%s moves %s outside the complement",
     [("e", (0, 0, -1)), ("e", (0, -1, -1))]),
    # E_(0,1) takes E_(1,0) to the stem root vector and E_-(0,1) into the
    # Cartan part: one violation each, however many labels the image hits
    ("A2", (), (0, 1), "the action preserves each free wing block",
     "%s maps %s outside its wing block", [("e", (1, 0)), ("e", (0, -1))]),
    ("A2", (), (0, 1), "the action kills the free sl2 and central directions",
     "%s acts on %s", [("e", (-1, -1)), ("p", 0), ("q", 0)]),
], ids=["leak", "wing-block", "kill"])
def test_equivariance_names_each_failed_case(shape, substem, root, name,
                                             text, targets):
    hc = build(shape, substem)
    r = Root(0, root)
    it = failed_item(verify_equivariance(with_subalgebra_root(hc, r)), name)
    labels = [(k, Root(0, v) if k == "e" else v) for k, v in targets]
    assert it.violations == [text % (("e", r), lab) for lab in labels]


def test_integrability_names_a_wrong_eigenspace_dimension():
    """I with i on both u_0 and u_1 of SU(3) x T^4 still squares to -1 and,
    as the u directions are central, still closes under brackets; only the
    eigenspace dimensions are wrong."""
    hc = build("c^4 x A2")
    pb = hc.pbasis
    cols = list(hc.i_cols)
    for s in (0, 1):
        u = pb.index[("u", s)]
        cols[u] = {u: I}
    rep = verify_integrability(HCStructure(pb, cols, hc.j_cols, hc.tau_cols))
    for sign, dim in (("+i", 7), ("-i", 5)):
        it = failed_item(rep, "first structure: %s eigenspace closes under "
                              "the projected bracket" % sign)
        assert it.violations == ["eigenspace dimension %d of 12" % dim]
    assert [it.name for it in rep.items if not it.ok] == [
        "first structure: +i eigenspace closes under the projected bracket",
        "first structure: -i eigenspace closes under the projected bracket"]


# ----------------------------------------------------- proofs by generation


# every simple type of rank <= 8
ATLAS_TYPES = (["A%d" % n for n in range(1, 9)]
               + ["B%d" % n for n in range(2, 9)]
               + ["C%d" % n for n in range(2, 9)]
               + ["D%d" % n for n in range(4, 9)]
               + ["E6", "E7", "E8", "F4", "G2"])
# pairs whose subalgebra holds central directions, or whose g has a torus
TORUS_BUILDS = (("c^1 x A1", (), 0), ("c^1 x C3", (2, 3), 0),
                ("c^2 x A3", (2,), 2), ("c^2 x A5", (), 1),
                ("c^1 x B2", (2,), 0), ("A6", (3,), 0))


def lie_closure(cb, gens):
    """A spanning set of the subalgebra the elements gens generate.  That
    subalgebra is spanned by the brackets [g1, [g2, ..., [gk-1, gk]]] of
    generators; each such bracket is a multiple of a kept element, as the
    bracket of every generator with every kept element is visited."""
    def ray(x):
        terms = sorted([(cb.key_index[("e", r)], c) for r, c in x.e.items()]
                       + [(cb.key_index[("h", j)], c)
                          for j, c in x.cartan.items()])
        first = terms[0][1]
        return tuple((k, c / first) for k, c in terms)

    kept, seen, todo = [], set(), list(gens)
    while todo:
        x = todo.pop()
        if x.is_zero() or ray(x) in seen:
            continue
        seen.add(ray(x))
        kept.append(x)
        todo += [cb.bracket(g, x) for g in gens]
    return kept


def span_dim(cb, elements):
    """The rank oracle: the dimension of the span of these elements."""
    return Span([g_coords(cb, x) for x in elements], len(cb.basis_keys)).dim


GENERATION_SHAPES = ATLAS_TYPES + ["c^2 x A3 x B2", "c^1 x F4 x A1"]


@pytest.mark.parametrize("text", GENERATION_SHAPES)
def test_algebra_generators_generate_the_algebra(text):
    cb = make_basis(parse_shape(text))
    gens = [cb.basis_element(k) for k in algebra_generators(cb)]
    assert span_dim(cb, lie_closure(cb, gens)) == len(cb.basis_keys)


def spec_id(spec):
    return "%s %s %d" % (spec.shape, list(spec.substem_indices), spec.o_k_dim)


def generation_pairs():
    specs = [make_pair_spec(*b) for b in SELFTEST_BUILDS + list(TORUS_BUILDS)]
    return list({spec_id(s): s for s in specs + accepted_torus_pairs()}
                .values())


@pytest.mark.parametrize("spec", generation_pairs(), ids=spec_id)
def test_subalgebra_generators_generate_the_subalgebra(spec):
    """The closure spans k: it lies in the span of the basis of k and has
    its dimension."""
    pb = PBasis(spec)
    cb = pb.cb
    kbasis = [x for _, x in subalgebra_basis(pb)]
    closure = lie_closure(cb, [x for _, x in subalgebra_generators(pb)])
    assert span_dim(cb, closure) == span_dim(cb, closure + kbasis) \
        == len(kbasis)


def test_closure_misses_a_left_out_simple_root():
    """The oracle is not vacuous: with one simple root, or the lowest root
    of one component, left out of the generators, the closure spans less
    than the algebra, or than k."""
    for text in GENERATION_SHAPES:
        cb = make_basis(parse_shape(text))
        a = cb.rs.simple_roots(0)[-1]
        ci = len(cb.rs.shape.simples) - 1
        theta = max((r for r in cb.rs.positives if r.comp == ci),
                    key=lambda r: r.height)
        for left_out in (("e", a), ("e", -theta)):
            assert left_out in algebra_generators(cb)
            gens = [cb.basis_element(k) for k in algebra_generators(cb)
                    if k != left_out]
            assert span_dim(cb, lie_closure(cb, gens)) \
                < len(cb.basis_keys), (text, left_out)
    for spec in generation_pairs():
        pb = PBasis(spec)
        if not pb.dk_set:
            continue
        a = pb.cb.rs.base(pb.dk_set)[0]
        gens = [x for name, x in subalgebra_generators(pb)
                if name not in (("e", a), ("e", -a))]
        assert span_dim(pb.cb, lie_closure(pb.cb, gens)) \
            < len(subalgebra_basis(pb)), spec


def test_generators_hold_only_the_central_cartan_slots():
    """[E_a, E_-a] = H_a gives the simple coroots, so only the center needs
    its own Cartan generators."""
    for text in ATLAS_TYPES:
        cb = make_basis(parse_shape(text))
        assert not [k for k in algebra_generators(cb) if k[0] == "h"], text
    cb = make_basis(parse_shape("c^2 x A3 x B2"))
    assert cb.semisimple_rank == 5
    assert [k for k in algebra_generators(cb) if k[0] == "h"] == \
        [("h", 5), ("h", 6)]


def corrupted_rotation(monkeypatch, gamma, corrupt):
    """Make every rotation at gamma that verify_rotation builds pass
    through corrupt(cb, rot) first, which writes into its moved images."""
    rotation = hcstruct.root_rotation

    def corrupted(cb, g, rho=ONE):
        rot = rotation(cb, g, rho)
        if g == gamma:
            corrupt(cb, rot)
        return rot

    monkeypatch.setattr(hcstruct, "root_rotation", corrupted)
    return rotation


def all_pairs_items(cb, st, gamma, rho):
    """The bracket, conjugation and commutation items of verify_rotation at
    gamma, from the rotations `hcstruct.root_rotation` builds now, checked
    on every pair, every basis vector and whole compositions."""
    rot = hcstruct.root_rotation(cb, gamma, rho)
    keys = cb.basis_keys
    n = len(keys)
    basis = [cb.basis_element(k) for k in keys]
    images = rot.images
    bad = []
    for a in range(n):
        for b in range(a + 1, n):
            if rot.apply(cb.bracket(basis[a], basis[b])) != \
                    cb.bracket(images[a], images[b]):
                bad.append("bracket of %s, %s not respected"
                           % (keys[a], keys[b]))
    items = [("rotation respects every bracket", n * (n - 1) // 2, bad)]
    bad = ["conjugation slips past the rotation at %s" % (keys[a],)
           for a in range(n)
           if rot.apply(cb.tau(basis[a])) != cb.tau(images[a])]
    items.append(("rotation commutes with the compact conjugation", n, bad))
    return [{"name": name, "checked": checked, "ok": not bad,
             "violations": bad, "violation_count": len(bad)}
            for name, checked, bad in items] \
        + [whole_compositions_item(cb, st, gamma, rho)]


def whole_compositions_item(cb, st, gamma, rho):
    """The commutation item of verify_rotation at gamma, from the rotations
    `hcstruct.root_rotation` builds now, checked on whole compositions."""
    rot = hcstruct.root_rotation(cb, gamma, rho)
    others = [d for d in st.elements if d != gamma]
    bad = []
    for d in others:
        other = hcstruct.root_rotation(cb, d, rho)
        if rot.compose(other) != other.compose(rot):
            bad.append("rotations at %s and %s do not commute" % (gamma, d))
    return {"name": "stem rotations commute pairwise",
            "checked": max(len(others), 1), "ok": not bad, "violations": bad,
            "violation_count": len(bad)}


def scaled_image(key, factor):
    """A corruption: the image of the basis vector with this key times
    factor."""
    def corrupt(cb, rot):
        k = cb.key_index[key]
        rot.moved[k] = rot.image(k).scale(factor)
    return corrupt


def added_image(root, extra):
    """A corruption: the image of E_root plus E_extra."""
    def corrupt(cb, rot):
        k = cb.key_index[("e", root)]
        rot.moved[k] = rot.image(k) + cb.E(extra)
    return corrupt


def graded(cb, rot):
    """A corruption that keeps an automorphism: the rotation after the
    grading E_a -> 2^height(a) E_a, which does not commute with tau."""
    for k, (kind, key) in enumerate(cb.basis_keys):
        if kind == "e":
            rot.moved[k] = rot.image(k).scale(Fraction(2) ** key.height)


@pytest.mark.parametrize("text,t,bent,corruption,failing", [
    ("A4", 0, 0, "highest", [0, 1]), ("A4", 1, 1, "highest", [0, 1, 2]),
    ("E6", 1, 1, "highest", [0, 1, 2]), ("c^1 x B3", 0, 0, "highest", [0, 1]),
    ("A4", 1, 1, "tau", [0, 1, 2]), ("D4", 2, 2, "tau", [0, 1, 2]),
    ("A4", 0, 0, "graded", [1, 2]), ("c^1 x B3", 1, 1, "graded", [1, 2]),
    ("D4", 1, 2, "other", [2]), ("A4", 1, 1, "cartan", [0, 2]),
    ("c^1 x B3", 0, 0, "cartan", [0, 2]), ("A4", 0, 0, "lowered", [0, 1, 2]),
    ("c^1 x B3", 1, 1, "lowered", [0, 1, 2])])
def test_rotation_proofs_fall_back_to_every_pair(monkeypatch, text, t, bent,
                                                  corruption, failing):
    """Stem rotation number `bent` corrupted: its image of the highest root
    vector theta, which is no generator, scaled by 2, or by i where the
    rotation fixes that vector, so that it slips past tau only at +-theta;
    the rotation after a grading, an automorphism that slips past tau
    everywhere; its image of a vector that it and rotation t both fix
    gaining E_gamma_t, so the two stop commuting only there; or its image
    of the semisimple Cartan vector H_0, which is no generator either,
    scaled by 2; or its image of E_-a for a simple root a, which is no
    generator either, as E_-theta stands in for the E_-a, scaled by 2.  Each
    item of rotation t equals its check over every pair, vector and
    composition, and the items in `failing` fail."""
    cb = make_basis(parse_shape(text))
    st = stem_of(parse_shape(text))
    gamma = st.elements[t]
    theta = max(cb.rs.positives, key=lambda r: r.height)
    simple = cb.rs.simple_roots(0)[0]
    last = st.elements[-1]
    assert ("e", theta) not in algebra_generators(cb)
    assert ("e", -theta) in algebra_generators(cb)
    assert ("e", -simple) not in algebra_generators(cb)
    assert ("h", 0) not in algebra_generators(cb)
    corrupt = {"highest": scaled_image(("e", theta), 2),
               "tau": scaled_image(("e", theta), I),
               "graded": graded, "other": added_image(last, gamma),
               "cartan": scaled_image(("h", 0), 2),
               "lowered": scaled_image(("e", -simple), 2)}[corruption]
    rotation = corrupted_rotation(monkeypatch, st.elements[bent], corrupt)
    got = [it.to_dict()
           for it in verify_rotation(cb, st, gamma, rho=EIGHTH_ROOT).items[:3]]
    assert got == all_pairs_items(cb, st, gamma, EIGHTH_ROOT)
    assert [k for k, it in enumerate(got) if not it["ok"]] == failing
    if corruption == "tau":
        assert rotation(cb, gamma).images[cb.key_index[("e", theta)]] \
            == cb.E(theta)
        assert got[1]["violations"] == [
            "conjugation slips past the rotation at %s" % (("e", r),)
            for r in sorted((theta, -theta), key=Root.key)]
    if corruption == "other":
        k = cb.key_index[("e", last)]
        assert rotation(cb, gamma).images[k] == cb.E(last)
        assert rotation(cb, st.elements[bent]).images[k] == cb.E(last)


# ------------------------------------------- rotation proofs at the phase one

# unit phases that the tests below meet on a fresh basis: -i, (3+4i)/5 and
# zeta8^3
FRESH_PHASES = (-I, PYTH, EIGHTH_ROOT * EIGHTH_ROOT * EIGHTH_ROOT)


def power(rho, j):
    """rho^j for a unit phase rho and any integer j."""
    out = ONE
    for _ in range(abs(j)):
        out = out * (rho if j > 0 else rho.conj())
    return out


@pytest.mark.parametrize("text", ["A4", "D4", "E6", "c^1 x B3", "A2 x A2"])
def test_rotation_items_at_fresh_phases_equal_every_pair(text):
    """On a fresh basis per phase, the bracket, conjugation and commutation
    items of every stem root equal their checks over every pair, vector and
    composition, at the first call, which makes the phase-one proofs, and at
    the second, which reads them; the whole reports agree."""
    sh = parse_shape(text)
    st = stem_of(sh)
    for rho in FRESH_PHASES:
        cb = ChevalleyBasis(build_cached(sh))
        for g in st.elements:
            assert g not in cb.rotation_proofs
            cold = verify_rotation(cb, st, g, rho)
            assert cb.rotation_proofs[g] is True
            warm = verify_rotation(cb, st, g, rho)
            want = all_pairs_items(cb, st, g, rho)
            assert [it.to_dict() for it in cold.items[:3]] == want, (g, rho)
            assert warm.to_dict() == cold.to_dict()
            assert cold.ok, cold.summary()


def flipped_grade(cb, gamma):
    """A corruption of every rotation at gamma that `root_rotation` builds:
    the first entry of odd grade j of the phase-one table, at beta in the
    image of basis vector k, times rho^-j in place of rho^j (these differ
    unless rho^2j = 1, which no FRESH_PHASES phase has for odd j)."""
    k, beta, c, j = next((k, r, c, j)
                         for k, (_, e) in sorted(cb.rotations[gamma].items())
                         for r, c, j in e if j % 2)

    def corrupt(rot, rho):
        image = rot.moved[k]
        e = dict(image.e)
        e[beta] = c * power(rho, -j)
        rot.moved[k] = AlgebraElement(cb, dict(image.cartan), e)
    return corrupt


def flipped_stored_grade(cb, gamma):
    """A corruption of the phase-one table of gamma itself: its first entry
    of odd grade j stored with the grade -j, so that `root_rotation` builds
    that entry times rho^-j at every phase.  No rotation needs corrupting."""
    table = cb.rotations[gamma]
    k, i = next((k, i) for k, (_, e) in sorted(table.items())
                for i, (_, _, j) in enumerate(e) if j % 2)
    cartan, e = table[k]
    r, c, j = e[i]
    table[k] = (cartan, e[:i] + ((r, c, -j),) + e[i + 1:])


def off_string(cb, gamma):
    """A corruption of every rotation at gamma that `root_rotation` builds:
    the entry at beta of its image of the first root vector E_alpha it moves
    into another root vector, moved onto the first root outside that image
    and outside the gamma-string through alpha."""
    rs = cb.rs
    table = cb.rotations[gamma]
    k, alpha, beta = next((k, key, r) for k, (kind, key) in
                          enumerate(cb.basis_keys)
                          if kind == "e" and k in table
                          for r, _, _ in table[k][1] if r != key)
    image_roots = {r for r, _, _ in table[k][1]}

    def on_string(r):
        diff = root_sub(r, alpha)
        return diff is not None and diff.comp == gamma.comp and any(
            diff.coords == tuple(j * x for x in gamma.coords)
            for j in range(-3, 4))

    target = next(r for r in sorted(rs.roots, key=Root.key)
                  if r not in image_roots and not on_string(r))

    def corrupt(rot, rho):
        image = rot.moved[k]
        e = dict(image.e)
        e[target] = e.pop(beta)
        rot.moved[k] = AlgebraElement(cb, dict(image.cartan), e)
    return corrupt


@pytest.mark.parametrize("text", ["A4", "c^1 x B3"])
@pytest.mark.parametrize("corruption",
                         ["flipped", "stored grade", "off string"])
def test_rotation_proofs_fall_back_on_a_rotation_the_grades_reject(
        monkeypatch, text, corruption):
    """Every rotation at the first stem root, corrupted where the grade
    check looks: one entry times rho^-j in place of rho^j, which leaves the
    phase one as it is, so the rotation there passes every item, either in
    each rotation built or through the grade stored in the table; or one
    entry moved off the gamma-string.  At each fresh phase the three items
    equal their checks over every pair, vector and composition, and fail,
    before the proofs at the phase one are made and after."""
    sh = parse_shape(text)
    st = stem_of(sh)
    cb = ChevalleyBasis(build_cached(sh))
    gamma = st.elements[0]
    rotation = hcstruct.root_rotation
    rotation(cb, gamma)     # builds the phase-one table
    corrupt = {"flipped": flipped_grade, "stored grade": flipped_stored_grade,
               "off string": off_string}[corruption](cb, gamma)

    def corrupted(cb_, g, rho=ONE):
        rot = rotation(cb_, g, rho)
        if g == gamma and corrupt:
            corrupt(rot, hcstruct._phase_map([g], rho)[g])
        return rot

    for proved in (False, True):
        if proved:
            assert verify_rotation(cb, st, gamma).ok
        assert (gamma in cb.rotation_proofs) == proved
        with monkeypatch.context() as m:
            m.setattr(hcstruct, "root_rotation", corrupted)
            for rho in FRESH_PHASES:
                got = [it.to_dict() for it in
                       verify_rotation(cb, st, gamma, rho).items[:3]]
                assert got == all_pairs_items(cb, st, gamma, rho), rho
                assert not all(it["ok"] for it in got), rho
            if corruption != "off string":
                assert corrupted(cb, gamma) == rotation(cb, gamma)
                assert verify_rotation(cb, st, gamma).ok
    assert cb.rotation_proofs[gamma] is True


@pytest.mark.parametrize("text", ["A4", "c^1 x B3"])
def test_rotation_proofs_fall_back_on_a_table_that_fails_them(text):
    """The phase-one table of the first stem root with the entry at E_gamma
    of its image of E_gamma times 2: every rotation built from it passes
    the grade check, but the proof at the phase one fails, is kept as
    failed, and every call reports what the checks over every pair, vector
    and composition report."""
    sh = parse_shape(text)
    st = stem_of(sh)
    cb = ChevalleyBasis(build_cached(sh))
    gamma = st.elements[0]
    root_rotation(cb, gamma)
    k = cb.key_index[("e", gamma)]
    cartan, e = cb.rotations[gamma][k]
    cb.rotations[gamma][k] = (cartan, tuple((r, c * 2 if r == gamma else c, j)
                                            for r, c, j in e))
    for rho in FRESH_PHASES + (ONE,):
        got = [it.to_dict()
               for it in verify_rotation(cb, st, gamma, rho).items[:3]]
        assert got == all_pairs_items(cb, st, gamma, rho), rho
        assert not got[0]["ok"], rho
        assert cb.rotation_proofs[gamma] is False


@pytest.mark.parametrize("text", ["A4", "D4", "c^1 x B3"])
def test_rotation_proofs_fall_back_on_a_root_that_is_not_orthogonal(text):
    """A stem of gamma and -gamma, which are not orthogonal: the two
    rotations commute at the phase one, as the one at -gamma is the inverse
    of the one at gamma there, but not at a fresh phase, where the
    commutation item fails as on the whole compositions, and the other two
    items equal their checks over every pair and vector."""
    sh = parse_shape(text)
    st = stem_of(sh)
    cb = ChevalleyBasis(build_cached(sh))
    g = st.elements[0]
    pair = types.SimpleNamespace(elements=[g, -g],
                                 phi={g: st.phi[g], -g: frozenset()})
    one, opposite = root_rotation(cb, g), root_rotation(cb, -g)
    assert one.compose(opposite) == opposite.compose(one)
    assert verify_rotation(cb, pair, g).items[2].ok
    for rho in FRESH_PHASES[1:]:
        got = [it.to_dict()
               for it in verify_rotation(cb, pair, g, rho).items[:3]]
        assert got == all_pairs_items(cb, pair, g, rho), rho
        assert got[2]["violations"] == [
            "rotations at %s and %s do not commute" % (g, -g)]
    assert frozenset((g, -g)) not in cb.rotation_proofs


def test_phase_one_proof_is_made_once_per_basis_and_root(monkeypatch):
    """A fresh basis proves the bracket and conjugation items of a stem root
    at its first `verify_rotation`, and the commutation item once per pair
    of stem roots, whichever root comes first.  A call at another phase
    makes no bracket and no composition, and the proofs are kept by root
    and by pair of roots, never by phase."""
    sh = parse_shape("D4")
    st = stem_of(sh)
    cb = ChevalleyBasis(build_cached(sh))
    brackets, compositions = [], []
    bracket = cb.bracket
    compose = hcstruct.RootRotation.compose

    def counted(x, y):
        brackets.append(1)
        return bracket(x, y)

    def counted_compose(self, other):
        compositions.append(1)
        return compose(self, other)

    monkeypatch.setattr(cb, "bracket", counted)
    monkeypatch.setattr(hcstruct.RootRotation, "compose", counted_compose)
    g, d, *rest = st.elements
    assert verify_rotation(cb, st, g, PYTH).ok
    assert brackets and len(compositions) == 2 * (len(rest) + 1)
    assert set(cb.rotation_proofs) == {g} | {frozenset((g, x))
                                             for x in [d] + rest}
    for rho in (PYTH, TWISTED, ONE):
        del brackets[:], compositions[:]
        assert verify_rotation(cb, st, g, rho).ok
        assert not brackets and not compositions
    assert verify_rotation(cb, st, d, TWISTED).ok
    assert brackets and len(compositions) == 2 * len(rest)
    assert set(cb.rotation_proofs) == {g, d} | {
        frozenset(p) for p in [(g, d)] + [(x, y) for x in (g, d)
                                          for y in rest]}
    assert all(v is True for v in cb.rotation_proofs.values())


# ------------------------------- rotations as the identity plus moved columns


SPARSE_ROTATION_TYPES = ("B4", "C4", "D4", "F4", "G2", "A7", "D6", "E6",
                         "c^1 x B3")
COEFFICIENTS = (ONE, -ONE, I, TowerScalar(3), PYTH, SQRT2 * HALF)


def fixed_and_moved(cb, rot):
    """The basis indices the rotation fixes, and the ones it moves."""
    fixed = [k for k in range(len(cb.basis)) if k not in rot.moved]
    return fixed, sorted(rot.moved)


def element_of(cb, coords):
    """The element with these dense coordinates, in `basis_keys` order."""
    parts = {"e": {}, "h": {}}
    for (kind, key), c in zip(cb.basis_keys, coords):
        if c:
            parts[kind][key] = c
    return AlgebraElement(cb, parts["h"], parts["e"])


def dense_times(cols, coords):
    """The square matrix with the dense columns cols times the vector
    coords: the sum of coords[i] times column i."""
    out = [ZERO] * len(cols)
    for i, c in enumerate(coords):
        if c:
            for r, a in enumerate(cols[i]):
                if a:
                    out[r] = out[r] + c * a
    return out


def sparse_coords(rng, n, fixed, moved):
    """Dense coordinate vectors of sparse elements: the first fixed and the
    first moved vector alone, with the coefficient one and with 3, and
    random elements of 2-5 terms drawn from the fixed vectors, the moved
    ones, and both."""
    terms = [[(k, c)] for k in (fixed[0], moved[0]) for c in (ONE, 3)]
    for pool in (fixed, moved, fixed + moved):
        for _ in range(3):
            ks = rng.sample(pool, min(len(pool), rng.randint(2, 5)))
            terms.append([(k, rng.choice(COEFFICIENTS)) for k in ks])
    out = []
    for ts in terms:
        coords = [ZERO] * n
        for k, c in ts:
            coords[k] = TowerScalar.of(c)
        out.append(coords)
    return out


def rotation_variants(cb, rot):
    """rot, and rot with its first fixed vector moved onto an equal but
    distinct copy of that vector, so that the moved set is too large, and
    onto twice it."""
    k = fixed_and_moved(cb, rot)[0][0]
    twin = cb.basis_element(cb.basis_keys[k])
    assert twin == cb.basis[k] and twin is not cb.basis[k]
    return [rot] + [hcstruct.RootRotation(cb, {**rot.moved, k: image})
                    for image in (twin, cb.basis[k].scale(2))]


@pytest.mark.parametrize("text", SPARSE_ROTATION_TYPES)
def test_sparse_rotation_equals_its_dense_matrix(text):
    """On every stem rotation at zeta8 and at a Pythagorean phase, and on
    its variants with a fixed vector moved onto an equal copy or a scaled
    copy, `apply` is the product of the dense matrix of `cols` with
    sparse elements, and `compose` the matrix product, either way round
    with the next stem rotation and with itself."""
    cb = make_basis(parse_shape(text))
    st = stem_of(parse_shape(text))
    n = len(cb.basis_keys)
    rng = random.Random(text)
    for rho in (EIGHTH_ROOT, PYTH):
        rots = [root_rotation(cb, g, rho) for g in st.elements]
        for t, rot in enumerate(rots):
            fixed, moved = fixed_and_moved(cb, rot)
            assert fixed and moved
            following = rots[(t + 1) % len(rots)]
            for variant in rotation_variants(cb, rot):
                cols = variant.cols
                for coords in sparse_coords(rng, n, fixed, moved):
                    assert variant.apply(element_of(cb, coords)) == \
                        element_of(cb, dense_times(cols, coords)), (text, t)
                for a, b in ((variant, following), (following, variant),
                             (variant, variant)):
                    got = a.compose(b)
                    a_cols = a.cols
                    assert [element_of(cb, c) for c in got.cols] == [
                        element_of(cb, dense_times(a_cols, c))
                        for c in b.cols], (text, t)


def test_apply_multiplies_only_through_the_moved_terms(monkeypatch):
    """An element on vectors the rotation fixes maps to itself with no
    scalar multiplication, one term or many; one moved term among them
    costs one multiplication per entry of its image, or none with the
    coefficient one."""
    cb = make_basis(parse_shape("D4"))
    rot = root_rotation(cb, stem_of(parse_shape("D4")).elements[0], PYTH)
    n = len(cb.basis_keys)
    fixed, moved = fixed_and_moved(cb, rot)
    on_fixed = [ZERO] * n
    for k, c in zip(fixed, (TowerScalar(3), PYTH, I, ONE)):
        on_fixed[k] = c
    x = element_of(cb, on_fixed)
    one_term = cb.basis[fixed[0]].scale(3)
    m = moved[0]
    mixed = x + cb.basis[m].scale(3)
    calls = []
    mul = TowerScalar.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(TowerScalar, "__mul__", counted)
    assert rot.apply(x) == x and rot.apply(one_term) == one_term
    assert not calls
    assert rot.apply(cb.basis[m]) is rot.images[m]
    assert not calls
    got = rot.apply(mixed)
    assert len(calls) == len(rot.images[m].e) + len(rot.images[m].cartan)
    monkeypatch.undo()
    assert got == x + rot.images[m].scale(3)


def test_empty_moved_set_is_the_identity():
    """A rotation that moves nothing maps every element to itself, and
    composing with it either way round gives the other rotation."""
    cb = make_basis(parse_shape("D4"))
    rot = root_rotation(cb, stem_of(parse_shape("D4")).elements[0], PYTH)
    identity = hcstruct.RootRotation(cb, {})
    rng = random.Random("identity")
    n = len(cb.basis_keys)
    for _ in range(10):
        coords = [ZERO] * n
        for k in rng.sample(range(n), rng.randint(1, 5)):
            coords[k] = TowerScalar.of(rng.choice(COEFFICIENTS))
        x = element_of(cb, coords)
        assert identity.apply(x) == x
    assert identity.compose(rot) == rot and rot.compose(identity) == rot
    assert identity.compose(identity).moved == {}


def test_a_moved_entry_equal_to_its_basis_vector_is_fixed():
    """A rotation whose only moved entry is its own basis vector is the
    identity; one whose only entry is twice it is not."""
    cb = make_basis(parse_shape("A2"))
    identity = hcstruct.RootRotation(cb, {})
    for k, key in enumerate(cb.basis_keys):
        same = hcstruct.RootRotation(cb, {k: cb.basis_element(key)})
        assert same == identity and identity == same
        assert hcstruct.RootRotation(cb, {k: cb.basis[k].scale(2)}) \
            != identity


def test_images_view_is_read_only():
    """A write into the whole-map view raises instead of passing silently:
    the rotation is its moved dict."""
    cb = make_basis(parse_shape("A2"))
    rot = root_rotation(cb, stem_of(parse_shape("A2")).elements[0])
    with pytest.raises(TypeError):
        rot.images[0] = cb.zero()


@pytest.mark.parametrize("text", ["D4", "c^1 x B3"])
def test_composition_moves_the_union_of_the_moved_keys(text):
    """The moved keys of a.compose(b) are those of a and of b together, for
    every pair of stem rotations, each with itself included."""
    cb = make_basis(parse_shape(text))
    rots = [root_rotation(cb, g, EIGHTH_ROOT)
            for g in stem_of(parse_shape(text)).elements]
    for a in rots:
        for b in rots:
            assert set(a.compose(b).moved) == set(a.moved) | set(b.moved)


@pytest.mark.parametrize("text", ["A4", "D4", "E6"])
def test_commutation_item_equals_the_whole_compositions(monkeypatch, text):
    """On every stem root the commutation item, which compares the two
    compositions over the moved columns of either rotation, equals the check
    of the whole compositions.  So it does with the next stem rotation's image
    of a root vector that rotation t fixes and that one moves gaining
    E_gamma_t: the item fails and names that pair alone."""
    cb = make_basis(parse_shape(text))
    st = stem_of(parse_shape(text))
    for t, gamma in enumerate(st.elements):
        got = verify_rotation(cb, st, gamma, rho=EIGHTH_ROOT).items[2]
        assert got.ok
        assert got.to_dict() == whole_compositions_item(cb, st, gamma,
                                                        EIGHTH_ROOT)
        d = st.elements[(t + 1) % len(st.elements)]
        rot = root_rotation(cb, gamma, EIGHTH_ROOT)
        other = root_rotation(cb, d, EIGHTH_ROOT)
        root = next(key[1] for k, key in enumerate(cb.basis_keys)
                    if key[0] == "e" and k not in rot.moved
                    and k in other.moved)
        with monkeypatch.context() as m:
            corrupted_rotation(m, d, added_image(root, gamma))
            got = verify_rotation(cb, st, gamma, rho=EIGHTH_ROOT).items[2]
            assert got.to_dict() == whole_compositions_item(cb, st, gamma,
                                                            EIGHTH_ROOT)
        assert got.violations == ["rotations at %s and %s do not commute"
                                  % (gamma, d)], (text, gamma)


def test_equivariance_falls_back_when_j_breaks_at_a_non_simple_root():
    """On A4 with substem 2, a J negated on one complement vector that the
    non-simple root vector of k moves: the commutation item
    equals its check over the whole basis of k, entry by entry, with more
    failed entries than the generators alone show."""
    hc = build("A4", (2,))
    pb = hc.pbasis
    cb = pb.cb
    n = len(pb.labels)
    beta = max(pb.dk_set, key=lambda r: (r.height, r.key()))
    assert beta not in cb.rs.base(pb.dk_set)
    lab = next(lab for lab, v in zip(pb.labels, pb.vectors)
               if pb.decompose(cb.bracket(cb.E(beta), v)).coords)
    broken = HCStructure(pb, hc.i_cols, negated_on(hc.j_cols, [lab], pb),
                         hc.tau_cols)
    j = [[broken.j_cols[c].get(r, ZERO) for c in range(n)] for r in range(n)]

    def wrong_entries(x):
        ad = [[ZERO] * n for _ in range(n)]
        for c, v in enumerate(pb.vectors):
            for r, val in pb.decompose(cb.bracket(x, v)).coords.items():
                ad[r][c] = val
        out = []
        for r in range(n):
            for c in range(n):
                lhs = sum((j[r][k] * ad[k][c] for k in range(n)), ZERO)
                rhs = sum((ad[r][k] * j[k][c] for k in range(n)), ZERO)
                if lhs != rhs:
                    out.append("entry (%s <- %s): %s != %s"
                               % (pb.labels[r], pb.labels[c], lhs, rhs))
        return out

    wrong = {name: wrong_entries(x) for name, x in subalgebra_basis(pb)}
    assert wrong[("e", beta)]
    on_generators = sum(len(wrong[name])
                        for name, _ in subalgebra_generators(pb))
    total = sum(map(len, wrong.values()))
    assert total > on_generators
    item = next(it for it in verify_equivariance(broken).items
                if it.name == "second structure commutes with the "
                              "subalgebra action")
    assert item.to_dict() == {
        "name": "second structure commutes with the subalgebra action",
        "checked": len(wrong) * n * n, "ok": False,
        "violations": [w for ws in wrong.values() for w in ws[:3]],
        "violation_count": total}



# --------------------------------------- torsion from the eigenspace closures


def torsion_items(hc):
    """The two torsion items over every pair of the compact basis, each
    N(x, y) = [Jx, Jy]_p - [x, y]_p - J [Jx, y]_p - J [x, Jy]_p formed from
    four projections, with J applied through `apply_i` and `apply_j`."""
    pb = hc.pbasis
    basis = compact_basis(pb)
    n = len(basis)
    br = pb.cb.bracket

    def proj(x):
        return pb.assemble(pb.project_coords(x))

    items = []
    for opname, op in (("first", hc.apply_i), ("second", hc.apply_j)):
        bad = []
        for a in range(n):
            for b in range(a + 1, n):
                (na, x), (nb, y) = basis[a], basis[b]
                jx, jy = op(x), op(y)
                torsion = (proj(br(jx, jy)) - proj(br(x, y))
                           - op(proj(br(jx, y))) - op(proj(br(x, jy))))
                if not torsion.is_zero():
                    bad.append("torsion of %s, %s is not zero" % (na, nb))
        items.append({"name": "%s structure: real torsion vanishes on the "
                              "compact basis" % opname,
                      "checked": n * (n - 1) // 2, "ok": not bad,
                      "violations": bad, "violation_count": len(bad)})
    return items


def all_pairs_report(monkeypatch, hc):
    """verify_integrability(hc) with no eigenvector list trusted as a
    basis, so that its torsion items come from the loop over all pairs, as
    dicts; the torsion items equal the four-projection oracle's."""
    with monkeypatch.context() as m:
        m.setattr(hcstruct, "_independent_eigenvectors",
                  lambda cols, vecs, lam: False)
        items = [it.to_dict() for it in verify_integrability(hc).items]
    assert items[4:] == torsion_items(hc)
    return items


def is_eigenvector(cols, v, lam):
    return _apply_cols(cols, v) == {i: lam * c for i, c in v.items()}


def eigenbasis_holds(hc, cols):
    """Whether the +i and -i eigenvector lists of cols (each half of an
    eigenbasis) are n/2 eigenvectors each and together have full rank."""
    n = len(hc.pbasis.labels)
    vectors = []
    for sign, lam in ((1, I), (-1, -I)):
        vecs = _eigenvectors(cols, sign)
        if 2 * len(vecs) != n or not all(is_eigenvector(cols, v, lam)
                                         for v in vecs):
            return False
        vectors += vecs
    return Span([[v.get(i, ZERO) for i in range(n)] for v in vectors],
                n).dim == n


TORSION_PAIRS = (
    [pytest.param(s.to_pair_spec(), id=s.describe())
     for s in enumerate_hc_spaces(24)]
    + [pytest.param(make_pair_spec(*b), id=" ".join(map(str, b)))
       for b in TORUS_BUILDS])


@pytest.mark.parametrize("spec", TORSION_PAIRS)
def test_j_half_report_equals_the_all_pairs_report(monkeypatch, spec):
    """On every space to dim 24 and every TORUS_BUILDS pair, the two
    eigenvector lists of each structure make a basis, and the report that
    proves the torsion from the closure items is the all-pairs report."""
    hc = build_structure(spec, phases=EIGHTH_ROOT)
    assert eigenbasis_holds(hc, hc.i_cols) and eigenbasis_holds(hc, hc.j_cols)
    got = [it.to_dict() for it in verify_integrability(hc).items]
    assert got == all_pairs_report(monkeypatch, hc)
    assert all(it["ok"] for it in got)


def closure_bracket_count(monkeypatch, hc):
    """The brackets verify_integrability(hc) makes, which must pass."""
    cb = hc.pbasis.cb
    bracket = cb.bracket
    calls = []

    def counted(x, y):
        calls.append(1)
        return bracket(x, y)

    with monkeypatch.context() as m:
        m.setattr(cb, "bracket", counted)
        assert verify_integrability(hc).ok
    return len(calls)


def test_integrability_makes_only_the_closure_brackets(monkeypatch):
    """On a passing structure the torsion items follow from the closure
    items, and each -i item from its +i item by conjugation:
    verify_integrability brackets the m(m+1)/2 pairs a <= b of each +i
    eigenvector list, m = n/2, and no -i or torsion pair."""
    hc = build("A4", (2,), phases=EIGHTH_ROOT)
    m = len(hc.pbasis.labels) // 2
    assert closure_bracket_count(monkeypatch, hc) == 2 * m * (m + 1) // 2


def test_integrability_without_the_mirror_brackets_every_list(monkeypatch):
    """Where the conjugation is not known to mirror tau, no -i item is
    taken from its +i item: the pairs of all four lists are bracketed, and
    the report is the same."""
    hc = build("A4", (2,), phases=EIGHTH_ROOT)
    want = verify_integrability(hc).to_dict()
    monkeypatch.setattr(hcstruct, "_conjugation_mirrors",
                        lambda pb, t_cols: False)
    m = len(hc.pbasis.labels) // 2
    assert closure_bracket_count(monkeypatch, hc) == 4 * m * (m + 1) // 2
    assert verify_integrability(hc).to_dict() == want


def with_j(hc, cols):
    return HCStructure(hc.pbasis, hc.i_cols, cols, hc.tau_cols)


def squares_to_minus_one(hc):
    return next(it for it in verify_operator_identities(hc).items
                if it.name.startswith("second structure squares")).ok


@pytest.mark.parametrize("shape,substem", [
    ("A2", ()), ("A4", (2,)), ("c^4 x A2", ())])
def test_torsion_falls_back_on_a_conjugated_j(monkeypatch, shape, substem):
    """J conjugated by the scaling of the stem root vector's label by 2
    still squares to -1 and still has an eigenbasis, but its eigenspaces
    no longer close and its torsion fails: the report lists every broken
    pair, as the all-pairs loop does."""
    hc = build(shape, substem)
    pb = hc.pbasis
    d = [ONE] * len(pb.labels)
    d[pb.index[("e", pb.gamma_p[0])]] = ONE + ONE
    broken = with_j(hc, [{i: v * d[i] / d[j] for i, v in col.items()}
                         for j, col in enumerate(hc.j_cols)])
    assert squares_to_minus_one(broken)
    assert eigenbasis_holds(broken, broken.j_cols)
    got = [it.to_dict() for it in verify_integrability(broken).items]
    assert got == all_pairs_report(monkeypatch, broken)
    assert not got[2]["ok"] and not got[3]["ok"]
    assert not got[5]["ok"]


def test_torsion_falls_back_when_j_does_not_square_to_minus_one(monkeypatch):
    """J with the column of P scaled by 2 squares to -2 at P and Q, so it
    has no eigenvector there: each eigenspace of the second structure has
    dimension 7 of 16, its closure item says so, and that sends the
    torsion to the all-pairs loop, which finds 35 failing pairs."""
    hc = build("A4", (2,))
    pb = hc.pbasis
    p = pb.index[("p", 0)]
    broken = with_j(hc, [{i: v * 2 for i, v in col.items()} if j == p
                         else col for j, col in enumerate(hc.j_cols)])
    assert not squares_to_minus_one(broken)
    got = [it.to_dict() for it in verify_integrability(broken).items]
    for item in got[2:4]:
        assert item["violations"][0] == "eigenspace dimension 7 of 16"
    assert got == all_pairs_report(monkeypatch, broken)
    assert got[5]["violation_count"] == 35


def closing_non_eigenvectors(hc, sign):
    """n/2 vectors, each with its own pivot, on which the (sign * i) closure
    item of hc's second structure J passes, though not all of them are
    eigenvectors: the eigenvectors outside the failing brackets and one
    vector z with (J - lam) P[z, v] = 0 for each of them ([z, z] = 0), in
    reduced echelon form."""
    pb = hc.pbasis
    n = len(pb.labels)
    lam = I if sign > 0 else -I

    def off(x, y):
        w = pb.project_coords(pb.cb.bracket(pb.assemble(x), pb.assemble(y)))
        jw = _apply_cols(hc.j_cols, w)
        return [jw.get(i, ZERO) - lam * w.get(i, ZERO) for i in range(n)]

    vecs = _eigenvectors(hc.j_cols, sign)
    failing = [{a, b} for a in range(len(vecs)) for b in range(a, len(vecs))
               if any(off(vecs[a], vecs[b]))]
    (k,) = set.intersection(*failing)
    rest = vecs[:k] + vecs[k + 1:]
    images = [[off({t: ONE}, v) for t in range(n)] for v in rest]
    system = [[img[t][i] for t in range(n)] for img in images
              for i in range(n)]
    dense = [[v.get(i, ZERO) for i in range(n)] for v in rest]
    for z in linalg.kernel_basis(system, n):
        rows = linalg.rref(dense + [z])[0]
        if len(rows) == n // 2:
            return [{i: c for i, c in enumerate(row) if c} for row in rows]
    raise AssertionError("no vector closes with the others")


@pytest.mark.parametrize("picker", ["repeated", "short", "not eigenvectors"])
def test_torsion_rejects_a_picked_half_that_spans_too_little(monkeypatch,
                                                              picker):
    """Eigenvector lists patched in for a J whose torsion fails, each of
    them passing both closure items and every part of the precondition but
    one: one eigenvector n/2 times (no own pivots), one eigenvector alone
    (too few), or n/2 vectors with own pivots that are not all
    eigenvectors.  Without that part the torsion item would pass."""
    hc = negated_two_cycle(build("A3", (2,)))
    n = len(hc.pbasis.labels)
    real = hcstruct._eigenvectors
    if picker == "not eigenvectors":
        lists = {sign: closing_non_eigenvectors(hc, sign) for sign in (1, -1)}
        assert not all(is_eigenvector(hc.j_cols, v, lam)
                       for sign, lam in ((1, I), (-1, -I))
                       for v in lists[sign])
    else:
        copies = {"repeated": n // 2, "short": 1}[picker]
        lists = {sign: [real(hc.j_cols, sign)[0]] * copies
                 for sign in (1, -1)}
    want = all_pairs_report(monkeypatch, hc)
    monkeypatch.setattr(hcstruct, "_eigenvectors", lambda cols, sign:
                        lists[sign] if cols is hc.j_cols else real(cols, sign))
    got = [it.to_dict() for it in verify_integrability(hc).items]
    short = ["eigenspace dimension 1 of %d" % n] if picker == "short" else []
    assert [it["violations"] for it in got[2:4]] == [short, short]
    assert got[4:] == want[4:]
    assert not want[5]["ok"] and want[5]["violation_count"] == 12


# ------------------------------------------------ mutants at the fresh phases


def wing_swapped(hc):
    """hc with rho and rho-bar swapped in the entry of J at
    (E_(g-a) <- E_-a), for the first free stem root g and its first wing
    root a: a J that is hc's own at the phase one."""
    pb = hc.pbasis
    g = pb.gamma_p[0]
    a = min(pb.stem.phi[g], key=Root.key)
    rb = pb.phases[g].conj()
    col, row = pb.index[("e", -a)], pb.index[("e", pb.cb.rs.sum(g, -a))]
    cols = [dict(c) for c in hc.j_cols]
    cols[col][row] = cols[col][row] * rb * rb
    return with_j(hc, cols)


def structure_mutant(hc, kind):
    """hc with J's wing entry swapped, the entry of I or of the conjugation
    matrix in the first column negated, or the basis vector P scaled by 2."""
    pb = hc.pbasis
    if kind == "wing swap":
        return wing_swapped(hc)
    if kind == "vector":
        pb = copy.copy(pb)
        pb.vectors = list(pb.vectors)
        k = pb.index[("p", 0)]
        pb.vectors[k] = pb.vectors[k].scale(2)
        return HCStructure(pb, hc.i_cols, hc.j_cols, hc.tau_cols)
    cols = {"I": hc.i_cols, "tau": hc.tau_cols}[kind]
    cols = [{i: -v for i, v in c.items()} if j == 0 else c
            for j, c in enumerate(cols)]
    if kind == "I":
        return HCStructure(pb, cols, hc.j_cols, hc.tau_cols)
    return HCStructure(pb, hc.i_cols, hc.j_cols, cols)


@pytest.mark.parametrize("kind", ["wing swap", "I", "tau", "vector"])
@pytest.mark.parametrize("shape,substem", [
    ("A4", (2,)), ("A2 x A2", ()), ("c^4 x A2", ())])
def test_a_mutant_fails_at_every_fresh_phase(shape, substem, kind):
    """Each mutant fails `verify_all` at each of the FRESH_PHASES, where the
    structure it is made from passes.  The wing-swap mutant's J is the
    construction's own at the phase one, so only a check at the phase
    itself catches it."""
    spec = make_pair_spec(shape, substem)
    if kind == "wing swap":
        assert wing_swapped(build_structure(spec)).j_cols == \
            build_structure(spec).j_cols
    for rho in FRESH_PHASES:
        hc = build_structure(spec, phases=rho)
        assert hc.verify_all().ok
        assert not structure_mutant(hc, kind).verify_all().ok, rho


def closure_items(hc):
    """The four eigenspace closure items of `verify_integrability`, as
    dicts, from a loop that brackets every pair a <= b of each eigenvector
    list, zero or not, and projects every bracket."""
    pb = hc.pbasis
    n = len(pb.labels)
    rep = CheckReport()
    for opname, cols in (("first", hc.i_cols), ("second", hc.j_cols)):
        for sign, signname, lam in ((1, "+i", I), (-1, "-i", -I)):
            vecs = _eigenvectors(cols, sign)
            bad = [] if 2 * len(vecs) == n else [
                "eigenspace dimension %d of %d" % (len(vecs), n)]
            elems = [pb.assemble(v) for v in vecs]
            pairs = [(a, b) for a in range(len(elems))
                     for b in range(a, len(elems))]
            for a, b in pairs:
                w = pb.project_coords(pb.cb.bracket(elems[a], elems[b]))
                if not is_eigenvector(cols, w, lam):
                    bad.append("bracket of vectors %d,%d leaves the %s "
                               "eigenspace" % (a, b, signname))
            rep.record("%s structure: %s eigenspace closes under the "
                       "projected bracket" % (opname, signname),
                       len(pairs) + 1, bad)
    return [it.to_dict() for it in rep.items]


def real_negated_cycles(hc):
    """hc with J negated on the 2-cycle through E_a and on the one through
    E_-a, for the first positive root a: J stays real, as the conjugation
    swaps the two cycles, and squares to -1, but is not integrable."""
    pb = hc.pbasis
    a = pb.dp_plus[0]
    cycle = set()
    for r in (a, -a):
        k = pb.index[("e", r)]
        cycle |= {k, *hc.j_cols[k]}
    cols = [{i: -v for i, v in col.items()} if j in cycle else col
            for j, col in enumerate(hc.j_cols)]
    return with_j(hc, cols)


def is_real(hc, cols):
    t = hc.tau_cols
    return _compose_cols(cols, t) == _compose_cols(
        t, [{i: v.conj() for i, v in col.items()} for col in cols])


@pytest.mark.parametrize("shape,substem", [("A2", ()), ("A4", (2,))])
def test_closure_items_match_the_loop_over_every_pair(shape, substem):
    """The closure items equal the loop's over every pair: on the
    structure; on the I that puts E_-g in the +i eigenspace with E_g, for
    the first free stem root g, where the bracket of the two, H_g, has no
    root part and its projection leaves the eigenspace; and on a real J
    that is not integrable, where the -i item fails with the +i item and
    is not taken from it."""
    hc = build(shape, substem, phases=PYTH)
    pb = hc.pbasis
    k = pb.index[("e", -pb.gamma_p[0])]
    i_cols = [{i: -v for i, v in col.items()} if j == k else col
              for j, col in enumerate(hc.i_cols)]
    broken_i = HCStructure(pb, i_cols, hc.j_cols, hc.tau_cols)
    broken_j = real_negated_cycles(hc)
    assert is_real(broken_j, broken_j.j_cols)
    for s in (hc, broken_i, broken_j):
        assert [it.to_dict() for it in verify_integrability(s).items[:4]] \
            == closure_items(s)
    assert closure_items(broken_i)[0]["violations"]
    assert [it["ok"] for it in closure_items(broken_j)] == \
        [True, True, False, False]


def test_conjugation_mirrors_checks_each_premise(monkeypatch):
    """The premises of the proof by conjugation hold on the construction,
    and each fails on its own: a column of the conjugation matrix negated,
    a basis vector whose conjugate has a part in k, and a generator of k
    whose conjugate has a part in p."""
    pb = build("A4", (2,)).pbasis
    t = conjugation_matrix(pb)
    mirrors = hcstruct._conjugation_mirrors
    assert mirrors(pb, t)
    assert not mirrors(pb, [{i: -v for i, v in col.items()} if j == 0
                            else col for j, col in enumerate(t)])
    cb = pb.cb
    tau = cb.tau
    k_vector = cb.E(min(pb.dk_set, key=Root.key))
    for x, extra in ((pb.vectors[0], k_vector),
                     (subalgebra_generators(pb)[0][1], pb.vectors[0])):
        with monkeypatch.context() as m:
            m.setattr(cb, "tau", lambda y, x=x, extra=extra:
                      tau(y) + extra if y == x else tau(y))
            assert not mirrors(pb, t)


def test_a_minus_i_list_of_non_eigenvectors_gets_the_loop(monkeypatch):
    """Where the -i list holds a +i eigenvector, the -i item is not taken
    from the +i one: the loop finds the pairs that leave the eigenspace."""
    hc = build("A4", (2,), phases=PYTH)
    real = hcstruct._eigenvectors

    def spoiled(cols, sign):
        vecs = real(cols, sign)
        return vecs if sign > 0 else vecs[:-1] + real(cols, 1)[:1]

    monkeypatch.setattr(hcstruct, "_eigenvectors", spoiled)
    items = verify_integrability(hc).items
    assert items[0].ok and items[2].ok
    assert not items[1].ok and not items[3].ok
