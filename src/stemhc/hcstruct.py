"""The hypercomplex structure on the reductive complement, built exactly.

Given an accepted pair spec this module fixes an adapted basis of the
complexified complement p (root vectors of the free wing blocks, two
tau-conjugate combinations P, Q per free stem root, and a 4-divisible block
of leftover central directions u), builds the two anticommuting complex
structures I and J over the scalar tower, builds the Cayley-type root
rotations exp((pi/2) ad X_gamma) on the full algebra, and verifies every
identity the construction is supposed to satisfy.

Everything on p has one sparse form: a vector is a dict from label index to
nonzero coordinate, and I, J, tau and ad(k) are lists of such columns.  A
rotation of the full algebra holds only the images of the basis vectors it
moves, as AlgebraElements, and fixes every other one.  A rotation is
invertible, so it sends independent vectors to as many independent images,
which span a target of that dimension iff each lies in it: every subspace
check is a sparse membership test.  All checks are exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import neg, sub

from .chevalley import AlgebraElement, ChevalleyBasis, _unit_phase, make_basis
from .linalg import invert, kernel_basis, mat_vec, rref
from .pairs import PairSpec, complement_data, delta_k
from .reporting import CheckReport
from .rootsystems import Root
from .scalars import HALF, I, ONE, SQRT2, ZERO, TowerScalar, eighth_root_power
from .stem import stem_of


# ---------------------------------------------------------------------------
# Cartan-side splitting helpers (all exact rational)


def root_functional(cb: ChevalleyBasis, gamma: Root):
    """gamma as a Fraction row acting on global Cartan coordinate vectors."""
    pairing = cb.pairings[gamma]
    return [Fraction(pairing.get(j, 0)) for j in range(cb.total_rank)]


def _kernel_inside(span_rows, functional_rows):
    """Basis of {v in span(span_rows) : f(v) = 0 for every row f}, in RREF."""
    if not span_rows:
        return []
    ncols = len(span_rows[0])
    if not functional_rows:
        return [list(r) for r in rref(span_rows)[0]]
    m = [[sum(f[j] * b[j] for j in range(ncols)) for b in span_rows]
         for f in functional_rows]
    vecs = []
    for c in kernel_basis(m, len(span_rows)):
        v = [Fraction(0)] * ncols
        for t, b in zip(c, span_rows):
            if t:
                for j in range(ncols):
                    v[j] += t * b[j]
        vecs.append(v)
    return [list(r) for r in rref(vecs)[0]]


def stem_central_kernel(cb: ChevalleyBasis, stem):
    """Deterministic basis of the common kernel of all stem functionals."""
    rows = [root_functional(cb, g) for g in stem.elements]
    return kernel_basis(rows, cb.total_rank)


def stem_z_vectors(cb: ChevalleyBasis, stem):
    """One central partner vector per stem root, in stem order.

    Takes the t-th kernel basis vector when it exists and the zero vector
    once the kernel is exhausted (types whose stem already fills the Cartan
    leave no room; the degenerate choice is still admissible everywhere the
    vectors are used, because only gamma(z) = 0 is ever needed).
    """
    ker = stem_central_kernel(cb, stem)
    out = []
    for t in range(len(stem.elements)):
        if t < len(ker):
            out.append(list(ker[t]))
        else:
            out.append([Fraction(0)] * cb.total_rank)
    return out


# ---------------------------------------------------------------------------
# The adapted basis of the complement


@dataclass
class PDecomposition:
    coords: dict          # label index -> nonzero TowerScalar
    k_e: dict             # root-vector part that fell into the subalgebra
    k_h: list             # subalgebra Cartan coefficients (coroots of
                          # the picked stem roots, then the o_k vectors)

    @property
    def in_p(self):
        return not self.k_e and not any(self.k_h)


class PBasis:
    """Ordered basis of the complexified complement of an accepted pair.

    Labels, in order: ("e", a) for a in Delta_p+, then ("e", -a); then
    ("p", t), ("q", t) per free stem root gamma_t (P = W - iZ and Q = W + iZ
    for W = (i/2)H_gamma and Z = i z_t with z_t a rational central kernel
    vector, so tau swaps P and Q); then ("u", s) over the leftover central
    block, whose dimension is divisible by 4.
    """

    def __init__(self, spec: PairSpec, phases=None):
        self.spec = spec
        self.cb = make_basis(spec.shape)
        self.stem = stem_of(spec.shape)
        if self.cb.rs is not self.stem.rs:
            raise AssertionError("the basis and the stem hold different "
                                 "root systems")
        self.sub = spec.substem()
        self.data = complement_data(spec)
        self.report = self.data.report
        self.gamma_p = list(self.data.gamma_p)
        self.gamma_k = [g for g in self.stem.elements if g in self.sub.members]
        self.num_p = len(self.gamma_p)
        self.dp_plus = list(self.data.delta_p_plus)
        self.dp_set = set(self.dp_plus) | {-a for a in self.dp_plus}
        self.dk_set = delta_k(self.sub)
        self.phases = _phase_map(self.gamma_p, phases)
        self._split_cartan()
        self._build_labels()
        self._build_h_matrix()
        self.vectors = [self._make_element(lab) for lab in self.labels]
        self._round_trip_check()

    # -- setup ---------------------------------------------------------------

    def _split_cartan(self):
        cb = self.cb
        K = cb.killing_h
        stem_rows = [root_functional(cb, g) for g in self.stem.elements]
        # torus part of the subalgebra: what the coroots of the simple roots
        # of Delta_k cover of the central kernel, padded up to o_k_dim with
        # orthogonal kernel directions
        hk_semi = [list(map(Fraction, cb.hroot[r]))
                   for r in cb.rs.base(self.dk_set)]
        span_o = _kernel_inside(hk_semi, stem_rows)
        if len(span_o) != self.report.rank_k_semisimple - len(self.gamma_k):
            raise AssertionError("central part of the subalgebra has "
                                 "dimension %d" % len(span_o))
        central = kernel_basis(stem_rows, cb.total_rank)
        extras = _kernel_inside(central, [mat_vec(K, w) for w in span_o])
        if len(extras) < self.spec.o_k_dim:
            raise AssertionError("too few central directions to pad o_k")
        self.o_k = [list(v) for v in span_o] + \
            [list(v) for v in extras[:self.spec.o_k_dim]]
        # the complement's central slice o_p: the part of h_k^perp (under
        # the invariant form K) killed by the free stem roots.  The stem roots
        # are strongly orthogonal, so h is the sum of the lines C H_gamma and
        # of c, their common kernel, and c is K-orthogonal to every H_gamma.
        # Delta_k is orthogonal to every free stem root (a deeper block is
        # orthogonal to a shallower stem root, incomparable blocks are
        # strongly orthogonal).  So h_k^perp is the sum of the lines C H_gamma
        # over the free stem roots and of c inside o_k^perp, and o_p is
        # c inside o_k^perp
        o_p = _kernel_inside(central, [mat_vec(K, w) for w in self.o_k])
        if len(o_p) != self.data.dim_o_p:
            raise AssertionError("central slice of the complement has "
                                 "dimension %d, expected %d"
                                 % (len(o_p), self.data.dim_o_p))
        if len(o_p) < self.num_p:
            raise AssertionError("central slice too small to pair every "
                                 "free stem root")
        self.z_vecs = [list(v) for v in o_p[:self.num_p]]
        self.j_vecs = [list(v) for v in o_p[self.num_p:]]
        if len(self.j_vecs) != self.data.dim_j_p or len(self.j_vecs) % 4:
            raise AssertionError("leftover central block of dimension %d"
                                 % len(self.j_vecs))

    def _build_labels(self):
        self.labels = [("e", a) for a in self.dp_plus]
        self.labels += [("e", -a) for a in self.dp_plus]
        for t in range(self.num_p):
            self.labels += [("p", t), ("q", t)]
        self.labels += [("u", s) for s in range(len(self.j_vecs))]
        if len(self.labels) != self.data.dim_p:
            raise AssertionError("%d labels for a complement of dimension %d"
                                 % (len(self.labels), self.data.dim_p))
        self.index = {lab: j for j, lab in enumerate(self.labels)}

    def _build_h_matrix(self):
        cb = self.cb
        cols = [list(map(Fraction, cb.hroot[g])) for g in self.gamma_k]
        cols += self.o_k
        self.n_k = len(cols)
        cols += [list(map(Fraction, cb.hroot[g])) for g in self.gamma_p]
        cols += self.z_vecs
        cols += self.j_vecs
        if len(cols) != cb.total_rank:
            raise AssertionError("%d Cartan basis vectors for rank %d"
                                 % (len(cols), cb.total_rank))
        m = [[cols[j][i] for j in range(len(cols))]
             for i in range(cb.total_rank)]
        self.h_inverse = invert(m)
        # what `decompose` makes of each Cartan slot, the column of the
        # inverse: its sparse subalgebra Cartan coefficients and its label
        # coordinates, P = d/2 - ic and Q = -d/2 - ic from the coefficients
        # c of H_gamma_t and d of z_t, and -i times that of each u vector
        nk, n_p = self.n_k, self.num_p
        self.slot_parts = []
        for col in zip(*self.h_inverse):
            k_h = [(r, TowerScalar.of(v)) for r, v in enumerate(col[:nk])
                   if v]
            coords = []
            for t in range(n_p):
                ic = I * col[nk + t]
                half_d = HALF * col[nk + n_p + t]
                coords += [(self.index[("p", t)], half_d - ic),
                           (self.index[("q", t)], -half_d - ic)]
            coords += [(self.index[("u", s)], -I * v)
                       for s, v in enumerate(col[nk + 2 * n_p:])]
            self.slot_parts.append((k_h, [(i, v) for i, v in coords if v]))

    def _round_trip_check(self):
        for j, v in enumerate(self.vectors):
            d = self.decompose(v)
            if not d.in_p:
                raise ValueError("basis element %s leaks into k"
                                 % (self.labels[j],))
            if d.coords != {j: ONE}:
                raise ValueError("basis round trip failed at %s"
                                 % (self.labels[j],))

    # -- elements --------------------------------------------------------------

    def _make_element(self, lab):
        kind, val = lab
        cb = self.cb
        if kind == "e":
            return cb.E(val)
        if kind == "p":
            return cb.W(self.gamma_p[val]) + cb.H_vec(self.z_vecs[val])
        if kind == "q":
            return cb.W(self.gamma_p[val]) - cb.H_vec(self.z_vecs[val])
        if kind == "u":
            return cb.H_vec(self.j_vecs[val]).scale(I)
        raise KeyError(lab)

    def element(self, lab) -> AlgebraElement:
        return self.vectors[self.index[lab]]

    def w_element(self, t) -> AlgebraElement:
        return self.cb.W(self.gamma_p[t])

    def z_element(self, t) -> AlgebraElement:
        """The designated partner Z = I W, a central kernel direction."""
        return self.cb.H_vec(self.z_vecs[t]).scale(I)

    def assemble(self, coords) -> AlgebraElement:
        return self.cb.combine((c, self.vectors[j]) for j, c in coords.items())

    def decompose(self, x: AlgebraElement) -> PDecomposition:
        if x.cb is not self.cb:
            raise ValueError("element of another Chevalley basis")
        coords = {}
        k_e = {}
        for r, c in x.e.items():
            if r in self.dp_set:
                coords[self.index[("e", r)]] = c
            elif r in self.dk_set:
                k_e[r] = c
            else:
                raise ValueError("unknown root %s" % (r,))
        k_h = [ZERO] * self.n_k
        if x.cartan:
            # linear in the Cartan part: the sum of each slot's parts
            parts = self.slot_parts
            for j, c in x.cartan.items():
                k_part, coord_part = parts[j]
                for r, v in k_part:
                    k_h[r] = k_h[r] + c * v
                for i, v in coord_part:
                    coords[i] = coords.get(i, ZERO) + c * v
            coords = {i: c for i, c in coords.items() if c}
        return PDecomposition(coords, k_e, k_h)

    def coords_strict(self, x: AlgebraElement):
        d = self.decompose(x)
        if not d.in_p:
            raise ValueError("element has a component inside the subalgebra")
        return d.coords

    def project_coords(self, x: AlgebraElement):
        """Coordinates of the complement part, dropping the subalgebra part."""
        return self.decompose(x).coords


def subalgebra_basis(pb: PBasis):
    """Labelled basis of the complexified subalgebra k."""
    cb = pb.cb
    out = [(("e", r), cb.E(r)) for r in sorted(pb.dk_set, key=Root.key)]
    return out + _subalgebra_cartan(pb)


def _subalgebra_cartan(pb: PBasis):
    cb = pb.cb
    out = [(("h", g), cb.H_of_root(g)) for g in pb.gamma_k]
    out += [(("o", j), cb.H_vec(v)) for j, v in enumerate(pb.o_k)]
    return out


def subalgebra_generators(pb: PBasis):
    """Generators of k, labelled as in `subalgebra_basis`: E_a and E_-a for
    the simple roots a of Delta_k, then k's Cartan basis, which also holds
    the central directions that no root vector generates."""
    cb = pb.cb
    out = [(("e", r), cb.E(r)) for a in cb.rs.base(pb.dk_set)
           for r in (a, -a)]
    return out + _subalgebra_cartan(pb)


# ---------------------------------------------------------------------------
# The two complex structures and the conjugation, as sparse columns


def _apply_cols(cols, coords):
    """The map with these columns applied to sparse coordinates (a dict from
    label index to nonzero entry); the image comes back in the same form."""
    if len(coords) < 2:
        # a multiple of one basis vector, or zero: one column, scaled
        for j, c in coords.items():
            return {i: p for i, v in cols[j].items() if (p := v * c)}
        return {}
    out = {}
    for j, c in coords.items():
        for i, v in cols[j].items():
            out[i] = out.get(i, ZERO) + v * c
    return {i: v for i, v in out.items() if v}


def _compose_cols(a, b):
    """The columns of the product a b."""
    return [_apply_cols(a, col) for col in b]


def _dense_view(cols):
    """The dense matrix of the columns: entry [i][j] is row i of column j."""
    return [[col.get(i, ZERO) for col in cols] for i in range(len(cols))]


def _cols_from_entries(pb: PBasis, entries):
    cols = [{} for _ in pb.labels]
    for (row, col), v in entries.items():
        cols[pb.index[col]][pb.index[row]] = TowerScalar.of(v)
    return cols


def build_I(pb: PBasis):
    """Multiplication by i on the positive half, -i on the negative half,
    and a rotation pairing consecutive leftover central directions."""
    entries = {}
    for a in pb.dp_plus:
        entries[(("e", a), ("e", a))] = I
        entries[(("e", -a), ("e", -a))] = -I
    for t in range(pb.num_p):
        entries[(("p", t), ("p", t))] = I
        entries[(("q", t), ("q", t))] = -I
    for s in range(0, len(pb.j_vecs), 2):
        entries[(("u", s + 1), ("u", s))] = ONE
        entries[(("u", s), ("u", s + 1))] = -ONE
    return _cols_from_entries(pb, entries)


def build_J(pb: PBasis):
    """The second structure: swaps each free stem root vector with its
    Cartan partner pair, shifts wing vectors across the stem root with the
    structure-constant sign, and rotates the central 4-blocks the other way."""
    cb = pb.cb
    entries = {}
    for t, g in enumerate(pb.gamma_p):
        rho = pb.phases[g]
        rb = rho.conj()
        entries[(("q", t), ("e", g))] = rb
        entries[(("p", t), ("e", -g))] = -rho
        entries[(("e", g), ("q", t))] = -rho
        entries[(("e", -g), ("p", t))] = rb
        for a in sorted(pb.stem.phi[g], key=Root.key):
            n = cb.N(g, -a)
            entries[(("e", cb.rs.sum(a, -g)), ("e", a))] = I * rb * n
            entries[(("e", cb.rs.sum(g, -a)), ("e", -a))] = -(I * rho * n)
    for s in range(0, len(pb.j_vecs), 4):
        entries[(("u", s + 2), ("u", s))] = ONE
        entries[(("u", s + 3), ("u", s + 1))] = -ONE
        entries[(("u", s), ("u", s + 2))] = -ONE
        entries[(("u", s + 1), ("u", s + 3))] = ONE
    return _cols_from_entries(pb, entries)


def conjugation_matrix(pb: PBasis):
    """The compact conjugation on the adapted labels: E_a -> -E_{-a},
    P <-> Q, u fixed.  Antilinear; the columns hold its linear part."""
    entries = {}
    for a in pb.dp_plus:
        entries[(("e", -a), ("e", a))] = -ONE
        entries[(("e", a), ("e", -a))] = -ONE
    for t in range(pb.num_p):
        entries[(("q", t), ("p", t))] = ONE
        entries[(("p", t), ("q", t))] = ONE
    for s in range(len(pb.j_vecs)):
        entries[(("u", s), ("u", s))] = ONE
    return _cols_from_entries(pb, entries)


def _matrix_mismatches(pb, got, want, limit=6):
    """(descriptions of the first `limit` entries, in row-major order, where
    the columns got and want differ, the number of all such entries)."""
    wrong = sorted((i, j) for j, (g, w) in enumerate(zip(got, want))
                   for i in g.keys() | w.keys()
                   if g.get(i, ZERO) != w.get(i, ZERO))
    return (["entry (%s <- %s): %s != %s"
             % (pb.labels[i], pb.labels[j], got[j].get(i, ZERO),
                want[j].get(i, ZERO)) for i, j in wrong[:limit]],
            len(wrong))


# ---------------------------------------------------------------------------
# Structure container and the verification battery


@dataclass
class HCStructure:
    """I, J and the linear part of the conjugation tau on the adapted basis,
    as sparse columns; the `*_matrix` properties are dense views."""

    pbasis: PBasis
    i_cols: list
    j_cols: list
    tau_cols: list

    @property
    def cb(self):
        return self.pbasis.cb

    @property
    def spec(self):
        return self.pbasis.spec

    i_matrix = property(lambda self: _dense_view(self.i_cols))
    j_matrix = property(lambda self: _dense_view(self.j_cols))

    def apply_i(self, x):
        pb = self.pbasis
        return pb.assemble(_apply_cols(self.i_cols, pb.coords_strict(x)))

    def apply_j(self, x):
        pb = self.pbasis
        return pb.assemble(_apply_cols(self.j_cols, pb.coords_strict(x)))

    def verify_all(self, include_cayley=True) -> CheckReport:
        rep = CheckReport()
        rep.extend(verify_operator_identities(self))
        rep.extend(verify_equivariance(self))
        rep.extend(verify_integrability(self))
        rep.extend(verify_root_coupling(self))
        rep.extend(verify_wing_restriction(self))
        if include_cayley:
            rep.extend(verify_eigenspace_transport(self))
        return rep


def build_structure(spec: PairSpec, phases=None) -> HCStructure:
    pb = PBasis(spec, phases=phases)
    return HCStructure(pb, build_I(pb), build_J(pb), conjugation_matrix(pb))


def verify_operator_identities(hc: HCStructure) -> CheckReport:
    """The pointwise operator algebra: squares, anticommutation, reality."""
    pb = hc.pbasis
    n = len(pb.labels)
    rep = CheckReport()
    i_cols, j_cols, t = hc.i_cols, hc.j_cols, hc.tau_cols
    minus_id = [{j: -ONE} for j in range(n)]
    rep.record("first structure squares to minus the identity", n * n,
               *_matrix_mismatches(pb, _compose_cols(i_cols, i_cols),
                                   minus_id))
    rep.record("second structure squares to minus the identity", n * n,
               *_matrix_mismatches(pb, _compose_cols(j_cols, j_cols),
                                   minus_id))
    minus_ji = [{i: -v for i, v in col.items()}
                for col in _compose_cols(j_cols, i_cols)]
    rep.record("the two structures anticommute", n * n,
               *_matrix_mismatches(pb, _compose_cols(i_cols, j_cols),
                                   minus_ji))
    rep.record("conjugation matrix is an involution", n * n,
               *_matrix_mismatches(pb, _compose_cols(t, t),
                                   [{j: ONE} for j in range(n)]))
    bad = []
    for j, lab in enumerate(pb.labels):
        img = pb.cb.tau(pb.vectors[j])
        d = pb.decompose(img)
        if not d.in_p or any(d.coords.get(i, ZERO) != t[j].get(i, ZERO)
                             for i in d.coords.keys() | t[j].keys()):
            bad.append("conjugate of %s disagrees with the matrix" % (lab,))
    rep.record("conjugation matrix mirrors the compact conjugation", n, bad)
    for opname, cols in (("first", i_cols), ("second", j_cols)):
        conj = [{i: v.conj() for i, v in col.items()} for col in cols]
        rep.record("%s structure is real for the compact form" % opname,
                   n * n, *_matrix_mismatches(pb, _compose_cols(cols, t),
                                              _compose_cols(t, conj)))
    # the compact sl2 generators transform into each other as claimed
    bad = []
    for t_idx, g in enumerate(pb.gamma_p):
        rho = pb.phases[g]
        x = pb.cb.X(g, rho)
        y = pb.cb.Y(g, rho)
        if hc.apply_j(x) != pb.w_element(t_idx):
            bad.append("J X_%s is not W" % (g,))
        if hc.apply_j(pb.z_element(t_idx)) != y:
            bad.append("J Z_%s is not Y" % (g,))
        if hc.apply_i(pb.w_element(t_idx)) != pb.z_element(t_idx):
            bad.append("I W_%s is not Z" % (g,))
    rep.record("compact generators rotate as claimed", 3 * pb.num_p, bad)
    return rep


def _ad_cols(pb: PBasis, x: AlgebraElement):
    """ad(x) restricted to the complement, as sparse columns over the
    labels.  Returns (columns, leak list); leak names labels whose bracket
    fell outside the complement."""
    cols = []
    leaks = []
    for lab, v in zip(pb.labels, pb.vectors):
        d = pb.decompose(pb.cb.bracket(x, v))
        if not d.in_p:
            leaks.append(lab)
        cols.append(d.coords)
    return cols, leaks


def verify_equivariance(hc: HCStructure) -> CheckReport:
    """The subalgebra action: stays inside the complement, commutes with
    both structures, preserves each free wing block, kills the rest."""
    pb = hc.pbasis
    kbasis = subalgebra_basis(pb)
    wing_labels = {}
    for g in pb.gamma_p:
        labs = set()
        for a in pb.stem.phi[g]:
            labs.add(pb.index[("e", a)])
            labs.add(pb.index[("e", -a)])
        wing_labels[g] = labs
    # labels outside every wing block: the stem roots themselves and the
    # central block
    sl2_labels = [pb.index[("e", g)] for g in pb.gamma_p]
    sl2_labels += [pb.index[("e", -g)] for g in pb.gamma_p]
    sl2_labels += [pb.index[(k, t)] for (k, t) in pb.labels
                   if k in ("p", "q", "u")]
    # Proof by generation.  The x in k with [x, p] inside p form a
    # subalgebra (Jacobi: [[x, x'], v] = [x, [x', v]] - [x', [x, v]]), so
    # once the generators of k pass the leak test all of k does, and then
    # ad restricted to p is a homomorphism from k to End(p).  The maps that
    # commute with I (with J), that keep each wing block, or that kill the
    # sl2 and central labels each form a subalgebra of End(p), and so do
    # their preimages in k: every item holds on k once it holds on the
    # generators.  If a generator fails an item, the loop over the whole
    # basis of k names every failed case.
    nk = max(len(kbasis), 1)
    rep = _equivariance_cases(hc, subalgebra_generators(pb), nk, wing_labels,
                              sl2_labels)
    if not rep.ok:
        rep = _equivariance_cases(hc, kbasis, nk, wing_labels, sl2_labels)
    return rep


def _equivariance_cases(hc, elements, nk, wing_labels, sl2_labels):
    """The equivariance items over these (name, element) pairs of k, each
    with the `checked` count of a basis of k with nk elements."""
    pb = hc.pbasis
    n = len(pb.labels)
    leaks_all = []
    commute_i, commute_j = [], []
    count_i = count_j = 0
    block_bad, kill_bad = [], []
    for name, x in elements:
        ad, leaks = _ad_cols(pb, x)
        leaks_all += ["%s moves %s outside the complement" % (name, lab)
                      for lab in leaks]
        bad, count = _matrix_mismatches(pb, _compose_cols(hc.i_cols, ad),
                                        _compose_cols(ad, hc.i_cols), limit=3)
        commute_i += bad
        count_i += count
        bad, count = _matrix_mismatches(pb, _compose_cols(hc.j_cols, ad),
                                        _compose_cols(ad, hc.j_cols), limit=3)
        commute_j += bad
        count_j += count
        for g in pb.gamma_p:
            labs = wing_labels[g]
            for j in labs:
                if not ad[j].keys() <= labs:
                    block_bad.append("%s maps %s outside its wing block"
                                     % (name, pb.labels[j]))
        for j in sl2_labels:
            if ad[j]:
                kill_bad.append("%s acts on %s" % (name, pb.labels[j]))
    rep = CheckReport()
    rep.record("subalgebra brackets stay inside the complement",
               nk * n, leaks_all)
    rep.record("first structure commutes with the subalgebra action",
               nk * n * n, commute_i, count_i)
    rep.record("second structure commutes with the subalgebra action",
               nk * n * n, commute_j, count_j)
    # counts one case per (element, label), like the leak item, but tests
    # only the labels inside the free wing blocks; the labels outside every
    # block are tested by the kill item
    rep.record("the action preserves each free wing block", nk * n, block_bad)
    rep.record("the action kills the free sl2 and central directions",
               nk * len(sl2_labels), kill_bad)
    return rep


def eigenspace(matrix, sign):
    """Exact basis of the (sign * i)-eigenspace of a dense matrix."""
    n = len(matrix)
    lam = I if sign > 0 else -I
    rows = [[matrix[i][j] - (lam if i == j else ZERO) for j in range(n)]
            for i in range(n)]
    return kernel_basis(rows, n)


def _eigenvectors(cols, sign):
    """`eigenspace(_dense_view(cols), sign)` as sparse coordinates.  If each
    column is one entry on a cycle of length at most 2, the RREF is block
    diagonal over the cycles, so the basis is read off them in free-column
    order: e_j if c_jj = lam, and e_j + (c_ij / lam) e_i for a 2-cycle i < j
    with c_ij c_ji = -1."""
    lam = I if sign > 0 else -I
    out = []
    for j, col in enumerate(cols):
        if len(col) != 1 or cols[next(iter(col))].keys() != {j}:
            return [{i: c for i, c in enumerate(v) if c}
                    for v in eigenspace(_dense_view(cols), sign)]
        ((i, c),) = col.items()
        if i == j and c == lam:
            out.append({j: ONE})
        elif i < j and c * cols[i][j] == -ONE:
            out.append({i: -lam * c, j: ONE})
    return out


def compact_basis(pb: PBasis):
    """A real basis of the compact form of the complement (it spans the
    complexification over the tower, which is what the checks need)."""
    cb = pb.cb
    out = []
    for a in pb.dp_plus:
        out.append(("x_%s" % (a,), cb.X(a)))
        out.append(("y_%s" % (a,), cb.Y(a)))
    for t in range(pb.num_p):
        out.append(("w_%d" % t, pb.w_element(t)))
        out.append(("z_%d" % t, pb.z_element(t)))
    for s in range(len(pb.j_vecs)):
        out.append(("u_%d" % s, pb.element(("u", s))))
    return out


def _independent_eigenvectors(cols, vecs, lam) -> bool:
    """Whether each sparse vector v satisfies cols v = lam v and has its own
    pivot, a coordinate where v is nonzero and every other vector of the
    list is zero, which makes the list independent."""
    count = Counter(i for v in vecs for i, c in v.items() if c)
    return all(_apply_cols(cols, v) == {i: lam * c for i, c in v.items()}
               and any(c and count[i] == 1 for i, c in v.items())
               for v in vecs)


def _torsion_violations(pb: PBasis, cols):
    """The pairs of the compact basis on which the real torsion of the
    structure with these columns does not vanish, each named."""
    basis = compact_basis(pb)
    images = [pb.assemble(_apply_cols(cols, pb.coords_strict(x)))
              for _, x in basis]
    br = pb.cb.bracket
    bad = []
    for a, b in combinations(range(len(basis)), 2):
        (na, xa), (nb, xb) = basis[a], basis[b]
        ja, jb = images[a], images[b]
        # by linearity of the projection P and of J, the torsion is
        # N(x, y) = P([Jx, Jy] - [x, y]) - J P([Jx, y] + [x, Jy])
        lhs = pb.project_coords(br(ja, jb) - br(xa, xb))
        cross = pb.project_coords(br(ja, xb) + br(xa, jb))
        if lhs != _apply_cols(cols, cross):
            bad.append("torsion of %s, %s is not zero" % (na, nb))
    return bad


def _conjugation_mirrors(pb: PBasis, t_cols) -> bool:
    """Whether the compact conjugation keeps k and acts on p as the
    columns t_cols: it sends each basis vector of p to its column, with no
    part in k, and each generator of k into k (an antilinear automorphism
    keeps k once it keeps the generators)."""
    cb = pb.cb
    for v, col in zip(pb.vectors, t_cols):
        d = pb.decompose(cb.tau(v))
        if not d.in_p or d.coords != {i: c for i, c in col.items() if c}:
            return False
    return not any(pb.decompose(cb.tau(x)).coords
                   for _, x in subalgebra_generators(pb))


def verify_integrability(hc: HCStructure) -> CheckReport:
    """Eigenspace bracket closure plus the direct real torsion expression.

    An identity on all pairs of basis vectors takes one of three proof
    paths: generators (`verify_rotation`, `verify_equivariance`),
    eigenspaces (the torsion here: it vanishes once both eigenspace closure
    items hold on eigenvectors that form a basis; and the -i closure item
    of a real structure, the conjugate of its +i item), or all pairs, the
    loop the other two fall back to when their precondition or a case
    fails, so that a failure lists every violation."""
    pb = hc.pbasis
    n = len(pb.labels)
    rep = CheckReport()
    structures = (("first", hc.i_cols), ("second", hc.j_cols))
    br = pb.cb.bracket
    t = hc.tau_cols
    mirrored = _conjugation_mirrors(pb, t)
    split = []
    for opname, cols in structures:
        real = mirrored and _compose_cols(cols, t) == _compose_cols(
            t, [{i: v.conj() for i, v in col.items()} for col in cols])
        closed = True
        for sign, signname in ((1, "+i"), (-1, "-i")):
            lam = I if sign > 0 else -I
            vecs = _eigenvectors(cols, sign)
            bad = []
            if 2 * len(vecs) != n:
                bad.append("eigenspace dimension %d of %d" % (len(vecs), n))
            item = ("%s structure: %s eigenspace closes under the projected "
                    "bracket" % (opname, signname))
            if sign < 0 and real and closed and not bad \
                    and _independent_eigenvectors(cols, vecs, lam):
                # Proof by conjugation.  tau is an antilinear automorphism
                # of g, and `_conjugation_mirrors` checked that it keeps k
                # and sends the basis vector j of p to column j of T.  So
                # it keeps p, commutes with the projection P along k, and
                # P[tau v, tau w] = tau P[v, w], where tau v has the
                # coordinates T conj(v).  The structure is real, S T =
                # T conj(S), so S v = iv gives S T conj(v) = T conj(S v) =
                # -i T conj(v): tau maps V+ into V-.  Each list has n/2
                # vectors, each an eigenvector with its own pivot, so each
                # is a basis of its eigenspace, and tau maps V+ onto V-.
                # The +i item holds on the pairs a <= b of a basis of V+,
                # and by antisymmetry on all pairs, so P[V+, V+] lies in
                # V+.  Then P[V-, V-] = tau P[V+, V+] lies in tau V+ = V-:
                # the item holds on every pair of the -i list.  If a
                # premise fails, the loop below checks every pair.
                m = len(vecs)
                rep.record(item, m * (m + 1) // 2 + 1, bad)
                continue
            elems = [pb.assemble(v) for v in vecs]
            checked = 0
            for a in range(len(elems)):
                for b in range(a, len(elems)):
                    checked += 1
                    # the span of the kernel basis is all of ker(op - lam)
                    x = br(elems[a], elems[b])
                    if not (x.e or x.cartan):
                        continue      # 0 lies in every eigenspace
                    w = pb.project_coords(x)
                    if _apply_cols(cols, w) != {i: lam * c
                                                for i, c in w.items()}:
                        bad.append("bracket of vectors %d,%d leaves the %s "
                                   "eigenspace" % (a, b, signname))
            rep.record(item, checked + 1, bad)
            closed = (closed and not bad
                      and _independent_eigenvectors(cols, vecs, lam))
        split.append(closed)
    for (opname, cols), proved in zip(structures, split):
        # Proof from the two closure items, J being either structure: the
        # algebraic Newlander-Nirenberg equivalence.  Extend the torsion
        #   N(x, y) = P([Jx, Jy] - [x, y]) - J P([Jx, y] + [x, Jy])
        # complex-bilinearly to p.  For Jv = iv and Jw = -iw both
        # [Jv, Jw] - [v, w] and [Jv, w] + [v, Jw] are zero, so N(v, w) = 0.
        # For v, w in the +i eigenspace V+,
        #   N(v, w) = -2 P[v, w] - 2i J P[v, w] = -2(1 + iJ) P[v, w],
        # which is zero iff J P[v, w] = i P[v, w]: what the +i item checks
        # on the pairs a <= b of its list (N is antisymmetric).  On V- it
        # is -2(1 - iJ) P[v, w] in the same way.  So N vanishes on p once
        # both items hold and V+ + V- = p.  That is checked here and not
        # taken from `_eigenvectors`: each list has n/2 vectors (part of
        # its item), each an eigenvector with its own pivot, so each list
        # is independent, and as i != -i the two make a basis of p.
        # Neither J^2 = -1 nor k-invariance is used.  If a part fails, the
        # loop over all pairs names every broken pair.
        bad = [] if proved else _torsion_violations(pb, cols)
        rep.record("%s structure: real torsion vanishes on the compact basis"
                   % opname, n * (n - 1) // 2, bad)
    return rep


def root_coupling_matrix(hc: HCStructure):
    """Coefficient of E_{-a} in J(E_b) for positive complement roots a, b."""
    pb = hc.pbasis
    out = {}
    for b in pb.dp_plus:
        col = hc.j_cols[pb.index[("e", b)]]
        for a in pb.dp_plus:
            v = col.get(pb.index[("e", -a)])
            if v:
                out[(a, b)] = v
    return out


def verify_root_coupling(hc: HCStructure) -> CheckReport:
    """The sparsity pattern and values of the second structure on root
    vectors: a pair couples exactly when it sums to a free stem root."""
    pb = hc.pbasis
    coup = root_coupling_matrix(hc)
    gamma_set = set(pb.gamma_p)
    rep = CheckReport()
    bad = []
    checked = 0
    denoms = {}
    for a in pb.dp_plus:
        for b in pb.dp_plus:
            checked += 1
            g = pb.cb.rs.sum(a, b)
            v = coup.get((a, b))
            if g not in gamma_set:
                if v is not None:
                    bad.append("unexpected coupling at (%s, %s)" % (a, b))
                continue
            if v is None:
                bad.append("missing coupling at (%s, %s)" % (a, b))
                continue
            rho = pb.phases[g]
            want = I * rho.conj() * pb.cb.N(g, -b)
            if v != want:
                bad.append("coupling at (%s, %s) is %s, want %s"
                           % (a, b, v, want))
                continue
            # the closed form through the stem root image: the coefficient
            # equals N(g,-b) / conj(g(J E_g)), a denominator made once per g
            if g not in denoms:
                jg = hc.apply_j(pb.cb.E(g))
                denoms[g] = pb.cb.eval_root(g, jg.cartan).conj()
            if v * denoms[g] != TowerScalar.of(pb.cb.N(g, -b)):
                bad.append("closed form fails at (%s, %s)" % (a, b))
    rep.record("root coupling is supported exactly on free stem sums",
               checked, bad)
    return rep


def verify_wing_restriction(hc: HCStructure) -> CheckReport:
    """On each free wing block the structures agree with the inner action
    of the compact sl2 generators: I with ad(2W), J with -ad(2Y)."""
    pb = hc.pbasis
    cb = pb.cb
    rep = CheckReport()
    bad_i, bad_j = [], []
    checked = 0
    for t, g in enumerate(pb.gamma_p):
        w2 = pb.w_element(t).scale(2)
        y2 = cb.Y(g, pb.phases[g]).scale(-2)
        for a in sorted(pb.stem.phi[g], key=Root.key):
            for r in (a, -a):
                checked += 1
                v = cb.E(r)
                if hc.apply_i(v) != cb.bracket(w2, v):
                    bad_i.append("first structure is not ad(2W) at %s" % (r,))
                if hc.apply_j(v) != cb.bracket(y2, v):
                    bad_j.append("second structure is not -ad(2Y) at %s"
                                 % (r,))
    rep.record("first structure restricts to ad(2W) on wing blocks",
               checked, bad_i)
    rep.record("second structure restricts to -ad(2Y) on wing blocks",
               checked, bad_j)
    return rep


# ---------------------------------------------------------------------------
# Cayley-type rotations on the full algebra


@lru_cache(maxsize=1)
def _rotation_poly():
    """Coefficients of the degree-6 polynomial matching the quarter-turn
    exponential on the eigenvalues {ik/2 : |k| <= 3} of any ad X_gamma."""
    nodes = [I * Fraction(k, 2) for k in range(-3, 4)]
    rows = []
    for x in nodes:
        row = [ONE]
        for _ in range(6):
            row.append(row[-1] * x)
        rows.append(row)
    vals = [eighth_root_power(k) for k in range(-3, 4)]
    return tuple(mat_vec(invert(rows), vals))


@lru_cache(maxsize=None)
def _folded_poly(m, lam):
    """The two coefficients that stand for the terms of degree m-2 and up of
    the rotation polynomial on a chain w_k = (ad X)^k w with
    w_m = lam w_(m-2): there w_(m-2+2t) = lam^t w_(m-2) and
    w_(m-1+2t) = lam^t w_(m-1)."""
    poly = _rotation_poly()
    out = []
    for start in (m - 2, m - 1):
        acc, power = ZERO, ONE
        for c in poly[start::2]:
            acc = acc + c * power
            power = power * lam
        out.append(acc)
    return tuple(out)


def _lag2_ratio(w: AlgebraElement, u: AlgebraElement):
    """lam with w == lam u, for a nonzero u, or None if there is none."""
    if w.e.keys() != u.e.keys() or w.cartan.keys() != u.cartan.keys():
        return None
    part = "e" if u.e else "cartan"
    key, c = next(iter(getattr(u, part).items()))
    lam = getattr(w, part)[key] / c
    return lam if w == u.scale(lam) else None


def g_coords(cb: ChevalleyBasis, x: AlgebraElement):
    out = [ZERO] * len(cb.basis_keys)
    for r, c in x.e.items():
        out[cb.key_index[("e", r)]] = c
    for j, c in x.cartan.items():
        out[cb.key_index[("h", j)]] = c
    return out


def _in_span(x: AlgebraElement, targets) -> bool:
    """Whether x lies in the span of targets, (pivot, vector) pairs whose
    pivot, ("e", root) or ("cartan", slot), is nonzero in its own vector
    only: then x is in the span iff it equals its expansion on the pivots."""
    return x == x.cb.combine(
        (getattr(x, part).get(key, ZERO) / getattr(t, part)[key], t)
        for (part, key), t in targets)


class RootRotation:
    """An automorphism of the full algebra, such as exp((pi/2) ad X_gamma),
    held by its moved images, `moved` = {basis index: image}, in
    `cb.basis_keys` order: every other basis vector is fixed, so the
    rotation is the identity plus its moved columns.  `images` and `cols`
    are views of the whole map, the dense one column-major."""

    def __init__(self, cb, moved):
        self.cb = cb
        self.moved = moved

    def image(self, k) -> AlgebraElement:
        return self.moved.get(k, self.cb.basis[k])

    @property
    def images(self):
        return tuple(map(self.image, range(len(self.cb.basis))))

    @property
    def cols(self):
        return [g_coords(self.cb, v) for v in self.images]

    def apply_coords(self, terms) -> AlgebraElement:
        """The image of the sum of c * (basis vector k) over the (k, c)
        pairs of the list terms, nonzero coefficients on distinct vectors.
        A fixed term keeps its coefficient; only the moved terms are
        multiplied through their images."""
        cb, moved = self.cb, self.moved
        h, e, hit = {}, {}, []
        for k, c in terms:
            if k in moved:
                hit.append((k, c))
            else:
                kind, key = cb.basis_keys[k]
                (e if kind == "e" else h)[key] = c
        if not hit:
            return AlgebraElement(cb, h, e)
        if len(terms) == 1:
            # a multiple of one basis vector, such as the bracket N_ab
            # E_(a+b) of two root vectors: its stored image, scaled
            ((k, c),) = hit
            return moved[k] if c == ONE else moved[k].scale(c)
        for k, c in hit:
            img = moved[k]
            for r, v in img.e.items():
                e[r] = e.get(r, ZERO) + c * v
            for j, v in img.cartan.items():
                h[j] = h.get(j, ZERO) + c * v
        return AlgebraElement(cb, {j: v for j, v in h.items() if v},
                              {r: v for r, v in e.items() if v})

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        index = self.cb.key_index
        terms = [(index[("e", r)], c) for r, c in x.e.items()]
        terms += [(index[("h", j)], c) for j, c in x.cartan.items()]
        return self.apply_coords(terms)

    def compose(self, other: "RootRotation") -> "RootRotation":
        if other.cb is not self.cb:
            raise ValueError("rotations of different Chevalley bases")
        moved = dict(self.moved)
        moved.update((k, self.apply(v)) for k, v in other.moved.items())
        return RootRotation(self.cb, moved)

    def __eq__(self, other):
        if not isinstance(other, RootRotation):
            return NotImplemented
        return self.cb is other.cb and all(
            self.image(k) == other.image(k)
            for k in self.moved.keys() | other.moved.keys())


def _phase_one_rotation(cb: ChevalleyBasis, gamma: Root):
    """exp((pi/2) ad X(gamma, 1)) as its moved images, {basis index:
    (cartan, e)}, each part a tuple of (slot or root, coefficient, j) with
    the entry's gamma-grade j: beta - alpha = j gamma for the entry at beta
    of the image of the basis vector at alpha, a Cartan slot counting as the
    root 0.  Each image is p(ad X) w for the degree-6 `_rotation_poly` p,
    along the chain w_k = (ad X)^k w of its basis vector w.  The chain stops
    at its first zero term, or at its first term w_m = lam w_(m-2), which
    `_folded_poly(m, lam)` folds in."""
    poly = _rotation_poly()
    x = cb.X(gamma)
    moved = {}
    for k, (kind, key) in enumerate(cb.basis_keys):
        chain = [cb.basis[k]]
        lam = None
        while len(chain) < len(poly):
            w = cb.bracket(x, chain[-1])
            if w.is_zero():
                break
            # lag 2: once w_m = lam w_(m-2), applying ad X gives
            # w_(m+1) = lam w_(m-1), and so on by linearity, so every later
            # term is a power of lam times w_(m-2) or w_(m-1).  Most chains
            # stop by m = 3: (ad X)^2 = -1/4 on a root string of length two,
            # and (ad X)^3 = -ad X on the sl2 of gamma.
            if len(chain) >= 2:
                lam = _lag2_ratio(w, chain[-2])
                if lam is not None:
                    break
            chain.append(w)
        m = len(chain)
        coeffs = poly if lam is None else poly[:m - 2] + _folded_poly(m, lam)
        image = cb.combine((c, w) for c, w in zip(coeffs, chain) if c)
        if image == chain[0]:
            continue
        # <beta - alpha, gamma^vee> = 2j
        base = cb.rs.cartan_int(key, gamma) if kind == "e" else 0
        moved[k] = (tuple((slot, c, -base // 2)
                          for slot, c in image.cartan.items()),
                    tuple((r, c, (cb.rs.cartan_int(r, gamma) - base) // 2)
                          for r, c in image.e.items()))
    return moved


def root_rotation(cb: ChevalleyBasis, gamma: Root, rho=ONE) -> RootRotation:
    """exp((pi/2) ad X_gamma) at the phase rho, rephased from the rotation
    at the phase one, which `_phase_one_rotation` builds once per basis and
    root.  Ad(exp(s H_gamma)) scales E_beta by e^(s <beta, gamma^vee>) and
    fixes the Cartan, so with e^(2s) = rho it sends X(gamma, 1) =
    (E_gamma - E_-gamma)/2 to (rho E_gamma - rho^-1 E_-gamma)/2 =
    X(gamma, rho), as rho^-1 = conj(rho) on the unit circle.  So rot_rho =
    Ad rot_1 Ad^-1, and an entry of grade j (beta - alpha = j gamma) scales by
    e^(s <j gamma, gamma^vee>) = e^(2sj) = rho^j: the square root cancels,
    and everything stays in Q(i, sqrt2).  The moved dict is new on every
    call."""
    if gamma not in cb.rs.root_set:
        raise ValueError("not a root: %s" % (gamma,))
    return _rephased(cb, gamma, _phase_map([gamma], rho)[gamma])


def _phase_one_table(cb: ChevalleyBasis, gamma: Root):
    """The moved images of `_phase_one_rotation` at gamma, built at the
    first call and kept on the basis."""
    moved = cb.rotations.get(gamma)
    if moved is None:
        moved = cb.rotations[gamma] = _phase_one_rotation(cb, gamma)
    return moved


def _grade_powers(rho):
    """rho^j by grade j, |j| <= 3, for a unit phase rho; the int 1 stands
    for each power that is one, as a scalar times the int 1 is the scalar
    itself, with no arithmetic."""
    squared = rho * rho
    powers = [ONE, rho, squared, squared * rho]
    powers = [p.conj() for p in reversed(powers[1:])] + powers
    return {j: 1 if p == ONE else p for j, p in zip(range(-3, 4), powers)}


def _rephased(cb: ChevalleyBasis, gamma: Root, rho) -> RootRotation:
    """The phase-one table of gamma with each entry of grade j times rho^j:
    `root_rotation` of a checked unit phase."""
    powers = _grade_powers(rho)
    return RootRotation(cb, {
        k: AlgebraElement(
            cb, {slot: c * powers[j] for slot, c, j in cartan},
            {r: c * powers[j] for r, c, j in e})
        for k, (cartan, e) in _phase_one_table(cb, gamma).items()})


def _phase_map(gammas, phases):
    """One unit phase per root: None means 1, a single scalar broadcasts, a
    list or tuple holds one phase per root in root order, and a dict, whose
    keys must be among the roots, defaults its missing roots to 1."""
    gammas = list(gammas)
    if phases is None:
        phases = {}
    elif isinstance(phases, (list, tuple)):
        if len(phases) != len(gammas):
            raise ValueError("need %d phases, got %d"
                             % (len(gammas), len(phases)))
        phases = dict(zip(gammas, phases))
    elif isinstance(phases, dict):
        unknown = set(phases) - set(gammas)
        if unknown:
            raise ValueError("phases given for roots outside the free "
                             "stem: %s" % sorted(map(str, unknown)))
    else:
        phases = {g: phases for g in gammas}
    return {g: _unit_phase(phases.get(g, ONE), g) for g in gammas}


def rotation_product(cb: ChevalleyBasis, gammas, phases=None) -> RootRotation:
    """Composition of the stem rotations (they commute, so order is moot)."""
    phases = _phase_map(gammas, phases)
    prod = RootRotation(cb, {})
    for g in gammas:
        prod = root_rotation(cb, g, phases[g]).compose(prod)
    return prod


def algebra_generators(cb: ChevalleyBasis):
    """Basis keys of generators of the full algebra: E_a for the simple
    roots a of each simple component and E_-theta for its highest root
    theta, then the central Cartan vectors, which no root vector generates.
    The subalgebra these generate holds n+, which the E_a generate, and
    E_-theta.  The adjoint module of a simple component is irreducible with
    the lowest weight vector E_-theta, so U(n+) E_-theta, the span of the
    iterated brackets of positive root vectors with E_-theta, is the whole
    component.  Its theta is the last of its positive roots, as `Root.key`
    sorts them by height."""
    rs = cb.rs
    keys = []
    for ci, (_, hi) in enumerate(rs._spans):
        keys += [("e", a) for a in rs.simple_roots(ci)]
        keys.append(("e", -rs.roots[hi - 1]))
    return keys + [("h", j) for j in range(cb.semisimple_rank, cb.total_rank)]


def _rephases_table(cb: ChevalleyBasis, gamma: Root, rot: RootRotation,
                    rho) -> bool:
    """Whether rot is the phase-one table R1 of gamma rephased to rho entry
    by entry: rot moves exactly the basis vectors that R1 moves, and the
    entry at beta of its image of the vector at alpha is R1's entry there
    times rho^j, with j read off the weights, beta - alpha = j gamma (not
    off the grades stored in the table), a Cartan slot having the weight 0.
    Then rot = D R1 D^-1 exactly, for D = Ad(exp(s H_gamma)) with e^(2s) =
    rho (see `root_rotation`)."""
    table = _phase_one_table(cb, gamma)
    if rot.moved.keys() != table.keys():
        return False
    g, comp = gamma.coords, gamma.comp
    zero = (0,) * len(g)
    # rho^j by the coordinates of j gamma
    power_at = {tuple(j * c for c in g): p
                for j, p in _grade_powers(rho).items()}
    keys = cb.basis_keys
    for k, (cartan, e) in table.items():
        image = rot.moved[k]
        ie = image.e
        if len(image.cartan) != len(cartan) or len(ie) != len(e):
            return False
        kind, alpha = keys[k]
        # the weight of alpha in gamma's component; a root outside it moves
        # by no multiple of gamma, so only alpha itself may join it (j = 0)
        a = zero if kind == "h" else \
            alpha.coords if alpha.comp == comp else None
        if cartan:
            p = None if a is None else power_at.get(tuple(map(neg, a)))
            if p is None or any(image.cartan.get(slot, ZERO) != c * p
                                for slot, c, _ in cartan):
                return False
        for r, c, _ in e:
            if r == alpha:
                p = 1
            elif a is None or r.comp != comp:
                return False
            else:
                p = power_at.get(tuple(map(sub, r.coords, a)))
            if p is None or ie.get(r, ZERO) != c * p:
                return False
    return True


def _respects_bracket(cb: ChevalleyBasis, rot: RootRotation, a, b) -> bool:
    """Whether rot [e_a, e_b] = [rot e_a, rot e_b] for basis vectors a, b."""
    moved = rot.moved
    if a in moved or b in moved:
        bracket = cb.bracket(cb.basis[a], cb.basis[b])
        return rot.apply(bracket) == cb.bracket(rot.image(a), rot.image(b))
    # rot fixes a and b, so the identity reads rot [a, b] = [a, b], which
    # holds when rot moves no basis vector of [a, b]: there is none for two
    # Cartan vectors, nor for roots x, y with x + y neither a root nor 0; a
    # Cartan vector and E_y give a multiple of E_y; and roots with x + y = s
    # a root give a multiple of E_s
    (ka, x), (kb, y) = cb.basis_keys[a], cb.basis_keys[b]
    if ka == "h" or kb == "h":
        return True
    s = cb.rs.sum(x, y)
    if s is None and y != -x \
            or s is not None and cb.key_index[("e", s)] not in moved:
        return True
    bracket = cb.bracket(cb.basis[a], cb.basis[b])
    return rot.apply(bracket) == bracket


def _commutes_with_tau(cb: ChevalleyBasis, rot: RootRotation, a) -> bool:
    return rot.apply(cb.tau(cb.basis[a])) == cb.tau(rot.image(a))


def _generator_proofs(cb: ChevalleyBasis, rot: RootRotation):
    """(automorphism, real): whether the proofs by generation show that rot
    respects every bracket, and that it also commutes with tau.

    Proof by generation.  S = {x : rot[x, y] = [rot x, rot y] for every y}
    is a subspace, and a subalgebra: for x, x' in S, Jacobi in g and then in
    the image give
      rot[[x, x'], y] = rot[x, [x', y]] - rot[x', [x, y]]
                      = [rot x, [rot x', rot y]] - [rot x', [rot x, rot y]]
                      = [[rot x, rot x'], rot y] = [rot[x, x'], rot y].
    So S is all of g once it holds the generators, and the generator rows
    prove every pair identity.  tau is an antilinear automorphism
    (`test_tau_properties` checks it), so once rot is an automorphism, rot
    tau and tau rot are antilinear automorphisms; the vectors on which two
    such maps agree form a subalgebra, so agreement on the generators is
    agreement everywhere."""
    gens = [cb.key_index[k] for k in algebra_generators(cb)]
    n = len(cb.basis)
    automorphism = all(_respects_bracket(cb, rot, a, b)
                       for a in gens for b in range(n))
    return automorphism, automorphism and all(
        _commutes_with_tau(cb, rot, a) for a in gens)


def _phase_free_violations(cb: ChevalleyBasis, gamma: Root, rot, others,
                           other_rots):
    """The violations of the bracket, conjugation and commutation items of
    `verify_rotation`, checked on rot itself: each of the first two by its
    proof by generation, and where that fails, on every pair or every basis
    vector, which names every broken case; the third on the compositions of
    rot with each rotation of other_rots, at the roots of others."""
    keys = cb.basis_keys
    n = len(keys)
    automorphism, real = _generator_proofs(cb, rot)
    brackets = [] if automorphism else [
        "bracket of %s, %s not respected" % (keys[a], keys[b])
        for a in range(n) for b in range(a + 1, n)
        if not _respects_bracket(cb, rot, a, b)]
    conjugation = [] if real else [
        "conjugation slips past the rotation at %s" % (keys[a],)
        for a in range(n) if not _commutes_with_tau(cb, rot, a)]
    commutation = [
        "rotations at %s and %s do not commute" % (gamma, d)
        for d, other in zip(others, other_rots)
        if rot.compose(other) != other.compose(rot)]
    return brackets, conjugation, commutation


def _phase_one_proofs(cb: ChevalleyBasis, gamma: Root, others) -> bool:
    """Whether the bracket, conjugation and commutation items of
    `verify_rotation` hold on the phase-one tables R1: the first two on R1
    of gamma, by the proofs by generation there, and the third on R1 of
    gamma with R1 of each root of others.  Each proof is made once and kept
    on the basis, in `cb.rotation_proofs`: by root for the first two, by
    the pair of roots for the third."""
    proofs = cb.rotation_proofs
    unproved = [d for d in others if frozenset((gamma, d)) not in proofs]
    if gamma not in proofs or unproved:
        r1 = _rephased(cb, gamma, ONE)
        if gamma not in proofs:
            proofs[gamma] = _generator_proofs(cb, r1)[1]
        for d in unproved:
            o1 = _rephased(cb, d, ONE)
            proofs[frozenset((gamma, d))] = r1.compose(o1) == o1.compose(r1)
    return proofs[gamma] and all(proofs[frozenset((gamma, d))]
                                 for d in others)


def verify_rotation(cb: ChevalleyBasis, stem, gamma: Root,
                    rho=ONE) -> CheckReport:
    """The single-rotation identities: automorphism, reality, commutation,
    the closed image formulas, and block invariance."""
    rho = _phase_map([gamma], rho)[gamma]
    rot = root_rotation(cb, gamma, rho)
    rep = CheckReport()
    n = len(cb.basis_keys)
    basis = cb.basis
    others = [d for d in stem.elements if d != gamma]
    other_rots = [root_rotation(cb, d, rho) for d in others]

    # Proof at the phase one.  If rot passes the grade check, rot = D R1 D^-1
    # exactly, with D = Ad(exp(s H_gamma)), e^(2s) = rho and R1 the
    # phase-one table of gamma.  D is an automorphism, so the bracket
    # identity carries over from R1 to rot.  |rho| = 1 puts exp(s H_gamma)
    # in the compact torus, so D commutes with tau, and so does rot once R1
    # does.  The grade check reads beta - alpha = j gamma for every entry of
    # R1_gamma, so D_d = Ad(exp(t H_d)) scales each by e^(t j <gamma, d^vee>)
    # = 1 when <gamma, d^vee> = 0: D_d commutes with R1_gamma, and likewise
    # D_gamma with R1_d.  So D_gamma D_d conjugates both R1 onto both
    # rotations at once, and they commute once the R1 do.  The proofs on
    # the R1 are made once per basis and root, or pair of roots, and kept.
    if _rephases_table(cb, gamma, rot, rho) and all(
            not cb.rs.cartan_int(gamma, d)
            and _rephases_table(cb, d, other, rho)
            for d, other in zip(others, other_rots)) \
            and _phase_one_proofs(cb, gamma, others):
        brackets, conjugation, commutation = [], [], []
    else:
        brackets, conjugation, commutation = _phase_free_violations(
            cb, gamma, rot, others, other_rots)
    rep.record("rotation respects every bracket", n * (n - 1) // 2, brackets)
    rep.record("rotation commutes with the compact conjugation", n,
               conjugation)
    rep.record("stem rotations commute pairwise", max(len(others), 1),
               commutation)

    scale = SQRT2 * HALF
    bad = []
    wings = sorted(stem.phi[gamma], key=Root.key)
    rs = cb.rs
    for a in wings:
        nconst = cb.N(gamma, -a)
        want = (cb.E(a) + cb.E(rs.sum(a, -gamma), nconst * rho.conj())) \
            .scale(scale)
        if rot.apply(cb.E(a)) != want:
            bad.append("wing image at %s" % (a,))
        want = (cb.E(-a) + cb.E(rs.sum(gamma, -a), nconst * rho)) \
            .scale(scale)
        if rot.apply(cb.E(-a)) != want:
            bad.append("wing image at %s" % (-a,))
    rep.record("wing vectors mix with weight sqrt2/2",
               max(2 * len(wings), 1), bad)

    bad = []
    want = (cb.X(gamma, rho) - cb.W(gamma).scale(I)).scale(rho.conj())
    if rot.apply(cb.E(gamma)) != want:
        bad.append("image of the stem root vector")
    want = (cb.X(gamma, rho) + cb.W(gamma).scale(I)).scale(-rho)
    if rot.apply(cb.E(-gamma)) != want:
        bad.append("image of the opposite stem root vector")
    rep.record("stem root vectors rotate onto the twisted compact pair",
               2, bad)

    bad = []
    shear = cb.Y(gamma, rho) + cb.W(gamma)
    for j in range(cb.total_rank):
        h = basis[cb.key_index[("h", j)]]
        want = h + shear.scale(I * cb.eval_root(gamma, h.cartan))
        if rot.apply(h) != want:
            bad.append("Cartan image at slot %d" % j)
    rep.record("Cartan vectors shear along the stem root",
               cb.total_rank, bad)

    bad = []
    ker = kernel_basis([root_functional(cb, gamma)], cb.total_rank)
    for v in ker:
        h = cb.H_vec(v)
        if rot.apply(h) != h:
            bad.append("kernel vector moved")
    rep.record("rotation fixes the kernel of the stem root",
               max(len(ker), 1), bad)

    # rot is invertible, so the images of a block's basis span the block iff
    # each lies in it: support inside the block and no Cartan part
    bad = []
    for d in others:
        for sign in (1, -1):
            side = {a if sign > 0 else -a for a in stem.phi[d]}
            if any(img.cartan or not img.e.keys() <= side
                   for img in (rot.apply(cb.E(a)) for a in side)):
                bad.append("wing block of %s not setwise invariant"
                           % (d if sign > 0 else -d,))
    h_gamma = cb.H_of_root(gamma)
    sl2 = [(("e", gamma), cb.E(gamma)), (("e", -gamma), cb.E(-gamma)),
           (("cartan", min(h_gamma.cartan)), h_gamma)]
    if not all(_in_span(rot.apply(v), sl2) for _, v in sl2):
        bad.append("own sl2 block not setwise invariant")
    rep.record("other wing blocks and the own sl2 stay setwise invariant",
               2 * len(others) + 1, bad)
    return rep


def verify_rotation_spans(cb: ChevalleyBasis, stem,
                          phases=None) -> CheckReport:
    """Image spans of the full product rotation: each wing block goes to
    its mixed twin, and each plane {P, E_gamma} goes to the twisted plane."""
    phases = _phase_map(stem.elements, phases)
    z_vecs = stem_z_vectors(cb, stem)
    prod = rotation_product(cb, stem.elements, phases)
    rep = CheckReport()

    # the product is invertible and each target vector has its own pivot (a
    # for E_a + c E_(a-g), as a > 0 > a - g), so the images span the target
    # iff each lies in it
    bad = []
    for g in stem.elements:
        rb = phases[g].conj()
        wings = stem.phi[g]
        want = [(("e", a), cb.E(a) + cb.E(cb.rs.sum(a, -g),
                                           cb.N(g, -a) * rb))
                for a in wings]
        if not all(_in_span(prod.apply(cb.E(a)), want) for a in wings):
            bad.append("wing span of %s" % (g,))
    rep.record("product rotation sends wing blocks to their mixed twins",
               len(stem.elements), bad)

    bad = []
    for g, z_vec in zip(stem.elements, z_vecs):
        rb = phases[g].conj()
        w = cb.W(g)
        z = cb.H_vec(z_vec).scale(I)
        p = w - z.scale(I)
        q = w + z.scale(I)
        want = [(("e", g), cb.E(g) - q.scale(I * rb)),
                (("e", -g), p - cb.E(-g).scale(I * rb))]
        if not all(_in_span(prod.apply(x), want) for x in (p, cb.E(g))):
            bad.append("twisted plane of %s" % (g,))
    rep.record("product rotation twists each stem plane as claimed",
               max(len(stem.elements), 1), bad)
    return rep


def verify_eigenspace_transport(hc: HCStructure) -> CheckReport:
    """The product rotation carries the untwisted polarization onto the
    eigenspaces of the second structure, and permutes the pair split."""
    pb = hc.pbasis
    cb = pb.cb
    prod = rotation_product(cb, pb.stem.elements, pb.phases)
    rep = CheckReport()

    # the product is invertible, so the images of a basis of k (of p) span
    # k (p) iff none has a part in p (in k)
    kbasis = [x for _, x in subalgebra_basis(pb)]
    leaks = sum(1 for x in kbasis if pb.decompose(prod.apply(x)).coords)
    rep.record("product rotation preserves the subalgebra",
               max(len(kbasis), 1), ["subalgebra span moved"] if leaks else [],
               leaks)

    moved = [pb.decompose(prod.apply(v)) for v in pb.vectors]
    leaks = sum(1 for d in moved if not d.in_p)
    rep.record("product rotation preserves the complement", len(moved),
               ["complement span moved"] if leaks else [], leaks)

    # the untwisted polarization: positive root vectors with P (resp.
    # negatives with Q), plus the matching central eigenvectors, which the
    # product fixes as every stem root kills them; the moved vectors span
    # the lam-eigenspace iff each is in it and they match its dimension
    for sign, signname in ((1, "+i"), (-1, "-i")):
        lam = I if sign > 0 else -I
        labels = [("e", a if sign > 0 else -a) for a in pb.dp_plus]
        labels += [("p" if sign > 0 else "q", t) for t in range(pb.num_p)]
        vecs = [moved[pb.index[lab]].coords for lab in labels]
        for s in range(0, len(pb.j_vecs), 4):
            u = [pb.index[("u", s + r)] for r in range(4)]
            vecs += [{u[0]: ONE, u[2]: -I * sign}, {u[1]: ONE, u[3]: I * sign}]
        bad = []
        if len(vecs) != len(_eigenvectors(hc.j_cols, sign)) or any(
                _apply_cols(hc.j_cols, v) != {i: lam * c for i, c in v.items()}
                for v in vecs):
            bad.append("transported span differs from the %s eigenspace"
                       % signname)
        rep.record("rotated polarization equals the %s eigenspace of the "
                   "second structure" % signname, len(vecs), bad)
    return rep
