"""Audit of the pair criterion across the simple types, recognition of the
zero-deficiency pairs, and enumeration of the admissible homogeneous spaces
up to a dimension bound.

The punchline the audit establishes: among simple compact algebras only the
type A quotients SU(n+1)/SU(n+3-2k) ever reach deficiency zero with a
nontrivial complement, so products of those (and even-rank full SU groups)
are the whole admissible list.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pairs import (PairSpec, Substem, check_pair, delta_k,
                    enumerate_substems, minimal_elements)
from .rootsystems import ReductiveShape, SimpleType, parse_shape
from .stem import stem_of


@dataclass(frozen=True)
class AuditRow:
    shape: str
    antichain: tuple          # 1-based indices of the generating antichain
    substem: tuple            # its up-closure
    subalgebra: str           # isomorphism type of the semisimple part
    deficiency: int

    def to_dict(self):
        return {"shape": self.shape, "antichain": list(self.antichain),
                "substem": list(self.substem), "subalgebra": self.subalgebra,
                "deficiency": self.deficiency}


def _subalgebra_label(rs, sub: Substem) -> str:
    dk = delta_k(sub)
    if not dk:
        return "0"
    comps = rs.irreducible_components(dk)
    return " x ".join(str(rs.component_type(c)) for c in comps)


def audit_type(shape) -> list:
    """Deficiency of every substem of a simple type except the full one
    (which gives back the algebra itself), semisimple subalgebras only."""
    if isinstance(shape, str):
        shape = parse_shape(shape)
    if shape.center_dim or len(shape.simples) != 1:
        raise ValueError("the audit runs on one simple type at a time")
    st = stem_of(shape)
    rs = st.rs
    rows = []
    for sub in enumerate_substems(st):
        if len(sub) == len(st.elements):
            continue
        mins = tuple(sorted(st.index(g) for g in minimal_elements(sub)))
        rep = check_pair(PairSpec(shape, sub.indices, 0))
        rows.append(AuditRow(str(shape), mins, sub.indices,
                             _subalgebra_label(rs, sub), rep.deficiency))
    rows.sort(key=lambda r: (len(r.antichain), r.antichain))
    return rows


def sign_claims_hold(shape) -> tuple:
    """Type A rows sit at zero except the empty substem in odd rank (-1);
    every other simple type is strictly negative throughout.  Returns
    (ok, rows, violations)."""
    if isinstance(shape, str):
        shape = parse_shape(shape)
    rows = audit_type(shape)
    t = shape.simples[0]
    bad = []
    for row in rows:
        if t.family == "A":
            want = -1 if (not row.substem and t.rank % 2 == 1) else 0
            if row.deficiency != want:
                bad.append("%s %s: deficiency %d, expected %d"
                           % (row.shape, row.antichain, row.deficiency, want))
        else:
            if row.deficiency >= 0:
                bad.append("%s %s: deficiency %d, expected < 0"
                           % (row.shape, row.antichain, row.deficiency))
    return (not bad, rows, bad)


# ------------------------------------------------------- admissible spaces


@dataclass(frozen=True)
class SpaceFactor:
    """SU(n+1)/SU(n+3-2k).  The subgroup is trivial exactly when
    k = (n+2)/2, which is the full group SU(n+1) with n even."""
    n: int
    k: int

    def __post_init__(self):
        if not (self.n >= 2 and self.k >= 2 and self.subgroup_order >= 1):
            raise ValueError("a factor needs n >= 2, k >= 2 and "
                             "n + 3 - 2k >= 1, got n = %d, k = %d"
                             % (self.n, self.k))

    @property
    def subgroup_order(self):
        return self.n + 3 - 2 * self.k

    @property
    def is_full_group(self):
        return self.subgroup_order == 1

    @property
    def dim(self):
        return 4 * (self.k - 1) * (self.n + 2 - self.k)

    def describe(self):
        if self.is_full_group:
            return "SU(%d)" % (self.n + 1)
        return "SU(%d)/SU(%d)" % (self.n + 1, self.subgroup_order)

    def provenances(self):
        out = ["SU(%d)/SU(%d)" % (self.n + 1, self.subgroup_order)]
        if self.is_full_group:
            out.insert(0, "SU(%d)" % (self.n + 1))
        return tuple(out)

    def key(self):
        return (self.dim, self.n, self.k)


@dataclass(frozen=True)
class HCSpace:
    factors: tuple

    @property
    def dim(self):
        return sum(f.dim for f in self.factors)

    def describe(self):
        return " x ".join(f.describe() for f in self.factors)

    def to_pair_spec(self) -> PairSpec:
        shape = ReductiveShape(0, tuple(SimpleType("A", f.n)
                                        for f in self.factors))
        st = stem_of(shape)
        picked = []
        for ci, f in enumerate(self.factors):
            chain = [g for g in st.elements if g.comp == ci]
            if not f.is_full_group:
                picked.extend(chain[f.k - 1:])
        return PairSpec(shape, Substem(st, picked).indices, 0)

    def to_dict(self):
        return {"dim": self.dim, "space": self.describe(),
                "factors": [{"n": f.n, "k": f.k, "dim": f.dim,
                             "names": list(f.provenances())}
                            for f in self.factors]}


def _all_factors(max_dim):
    out = []
    n = 2
    while 4 * n <= max_dim:                  # k = 2 gives the smallest dim
        for k in range(2, (n + 2) // 2 + 1):
            f = SpaceFactor(n, k)
            if f.dim <= max_dim:
                out.append(f)
        n += 1
    out.sort(key=SpaceFactor.key)
    return out


def enumerate_hc_spaces(max_dim: int) -> list:
    """All products of admissible factors with total dimension <= max_dim,
    as multisets in canonical order."""
    factors = _all_factors(max_dim)
    spaces = []

    def extend(start, chosen, left):
        for i in range(start, len(factors)):
            f = factors[i]
            if f.dim > left:
                continue
            chosen.append(f)
            spaces.append(HCSpace(tuple(chosen)))
            extend(i, chosen, left - f.dim)
            chosen.pop()

    extend(0, [], max_dim)
    spaces.sort(key=lambda s: (s.dim, tuple(f.key() for f in s.factors)))
    return spaces
