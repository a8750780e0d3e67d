"""Pairs (g, k) built from substems: the numeric acceptance criterion and the
dimension bookkeeping of the reductive complement.

A subalgebra is described by an up-closed subset of the stem (its substem)
plus an optional extra central torus dimension.  Everything here is counting,
the subalgebra's rank included (the number of simple roots of its root set);
the actual basis construction lives in hcstruct.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootsystems import ReductiveShape, Root, build_cached, parse_shape
from .stem import Stem, stem_of


class Substem:
    """An up-closed subset of the stem.

    Input may mix 1-based indices (canonical stem order) and roots; whatever
    comes in is up-closed, so naming any stem root pulls in everything above
    it."""

    def __init__(self, stem: Stem, members=()):
        roots = []
        for m in members:
            if isinstance(m, Root):
                if m not in stem.theta:
                    raise ValueError("not a stem root: %s" % (m,))
                roots.append(m)
            elif isinstance(m, int):
                if not 1 <= m <= len(stem.elements):
                    raise ValueError("stem index out of range: %d" % m)
                roots.append(stem.elements[m - 1])
            else:
                raise TypeError("substem members are roots or indices")
        self.stem = stem
        self.members = stem.up_closure(roots) if roots else frozenset()
        self.indices = tuple(sorted(stem.index(g) for g in self.members))

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (isinstance(other, Substem) and other.stem is self.stem
                and other.members == self.members)

    def __repr__(self):
        return "Substem(%s)" % (list(self.indices),)

    def complement_roots(self):
        """Stem roots outside the substem, in stem order."""
        return tuple(g for g in self.stem.elements if g not in self.members)


def enumerate_substems(stem: Stem):
    """All up-closed subsets, sorted by size then indices.

    They are grown directly: the stem roots are taken smallest up-set first,
    which puts every root of an up-set before the root it belongs to, and a
    root joins each subset grown so far that holds the rest of its up-set.
    So each up-closed subset is made exactly once, from its members in that
    order."""
    ups = {g: stem.up_closure([g]) for g in stem.elements}
    grown = [frozenset()]
    for g in sorted(stem.elements, key=lambda g: len(ups[g])):
        rest = ups[g] - {g}
        grown += [s | {g} for s in grown if rest <= s]
    out = [Substem(stem, chosen) for chosen in grown]
    out.sort(key=lambda s: (len(s.indices), s.indices))
    return out


def minimal_elements(sub: Substem):
    """The antichain generating the substem; checks that the peeled
    components of its members tile the subalgebra's root set."""
    stem = sub.stem
    mins = tuple(g for g in stem.elements if g in sub.members
                 and not any(d in sub.members and stem.precedes(d, g)
                             for d in stem.elements))
    seen = set()
    for g in mins:
        th = stem.theta[g]
        if seen & th:
            raise AssertionError("component tiles overlap")
        seen |= th
    if seen != delta_k(sub):
        raise AssertionError("component tiles miss roots")
    return mins


def delta_k(sub: Substem):
    """The root set of the subalgebra: all wing blocks of the substem."""
    stem = sub.stem
    out = set()
    for g in sub.members:
        out.add(g)
        out.add(-g)
        for w in stem.phi[g]:
            out.add(w)
            out.add(-w)
    return frozenset(out)


@dataclass(frozen=True)
class PairSpec:
    """Shape of g, canonical substem indices, extra torus dimension of k."""
    shape: ReductiveShape
    substem_indices: tuple
    o_k_dim: int = 0

    def stem(self) -> Stem:
        return stem_of(self.shape)

    def substem(self) -> Substem:
        sub = Substem(self.stem(), self.substem_indices)
        if sub.indices != self.substem_indices:
            raise ValueError("substem %s is not canonical, name it %s"
                             % (self.substem_indices, sub.indices))
        return sub


def make_pair_spec(shape, substem=(), o_k_dim=0) -> PairSpec:
    if isinstance(shape, str):
        shape = parse_shape(shape)
    sub = Substem(stem_of(shape), substem)
    return PairSpec(shape, sub.indices, int(o_k_dim))


REASON_DIM_NOT_POSITIVE = "DIM_NOT_POSITIVE"
REASON_DIM_NOT_MOD4 = "DIM_NOT_MOD4"
REASON_DEFICIENCY_NEGATIVE = "DEFICIENCY_NEGATIVE"


@dataclass(frozen=True)
class PairReport:
    spec: PairSpec
    rank_g: int
    srank_g: int
    rank_k: int
    srank_k: int
    rank_k_semisimple: int
    dim_g: int
    dim_k: int
    dim_diff: int
    deficiency: int
    reasons: tuple
    verdict: bool

    def to_dict(self):
        return {
            "shape": str(self.spec.shape),
            "substem": list(self.spec.substem_indices),
            "o_k_dim": self.spec.o_k_dim,
            "rank_g": self.rank_g, "srank_g": self.srank_g,
            "rank_k": self.rank_k, "srank_k": self.srank_k,
            "rank_k_semisimple": self.rank_k_semisimple,
            "dim_g": self.dim_g, "dim_k": self.dim_k,
            "dim_diff": self.dim_diff, "deficiency": self.deficiency,
            "reasons": list(self.reasons), "verdict": self.verdict,
        }


def check_pair(spec: PairSpec) -> PairReport:
    """Evaluate the numeric criterion: positive dimension gap, divisible by
    four, and nonnegative deficiency."""
    shape = spec.shape
    rs = build_cached(shape)
    stem = spec.stem()
    sub = spec.substem()
    rank_g = shape.rank
    srank_g = stem.srank
    srank_k = 2 * len(sub.members)
    dk = delta_k(sub)
    rank_s = len(rs.base(dk))                      # simple roots of k
    dim_center = rank_g - len(stem.elements)       # central directions in h
    available = dim_center - (rank_s - len(sub.members))
    if spec.o_k_dim < 0:
        raise ValueError("o_k_dim must be nonnegative")
    if spec.o_k_dim > available:
        raise ValueError(
            "o_k_dim = %d exceeds the %d available central directions"
            % (spec.o_k_dim, available))
    rank_k = rank_s + spec.o_k_dim
    dim_g = rank_g + len(rs.roots)
    dim_k = rank_k + len(dk)
    dim_diff = dim_g - dim_k
    deficiency = rank_g + srank_k - rank_k - srank_g
    reasons = []
    if dim_diff <= 0:
        reasons.append(REASON_DIM_NOT_POSITIVE)
    if dim_diff % 4 != 0:
        reasons.append(REASON_DIM_NOT_MOD4)
    if deficiency < 0:
        reasons.append(REASON_DEFICIENCY_NEGATIVE)
    return PairReport(spec, rank_g, srank_g, rank_k, srank_k, rank_s,
                      dim_g, dim_k, dim_diff, deficiency,
                      tuple(reasons), not reasons)


@dataclass(frozen=True)
class ComplementData:
    spec: PairSpec
    gamma_p: tuple           # stem roots outside the substem, stem order
    delta_p_plus: tuple      # their wing blocks, sorted
    dim_h_p: int             # Cartan directions lost to p
    dim_o_p: int             # central directions inside p
    dim_w_p: int             # one compact coroot line per free stem root
    dim_z_p: int             # their partners inside o_p
    dim_j_p: int             # what remains of o_p, always divisible by 4
    dim_p: int
    report: PairReport       # the criterion this split was sized from

    def to_dict(self):
        return {"gamma_p": [str(g) for g in self.gamma_p],
                "wing_roots": len(self.delta_p_plus),
                "dim_h_p": self.dim_h_p, "dim_o_p": self.dim_o_p,
                "dim_w_p": self.dim_w_p, "dim_z_p": self.dim_z_p,
                "dim_j_p": self.dim_j_p, "dim_p": self.dim_p}


def complement_data(spec: PairSpec) -> ComplementData:
    """Dimension split of the complement of an accepted spec."""
    report = check_pair(spec)
    if not report.verdict:
        raise ValueError("pair fails the criterion (%s)"
                         % ", ".join(report.reasons))
    stem = spec.stem()
    sub = spec.substem()
    gamma_p = sub.complement_roots()
    dk = delta_k(sub)
    dp_plus = sorted((r for r in stem.rs.positives if r not in dk),
                     key=Root.key)
    blocks = set()
    for g in gamma_p:
        blocks.add(g)
        blocks |= set(stem.phi[g])
    if set(dp_plus) != blocks:
        raise AssertionError("complement roots mismatch wing blocks")
    # the free stem roots, the Cartan directions lost to p and the central
    # directions inside p (those of g less those of k)
    num_p = len(stem.elements) - len(sub.members)
    dim_h_p = report.rank_g - report.rank_k
    dim_o_p = (report.rank_g - len(stem.elements)) \
        - (report.rank_k - len(sub.members))
    dim_j_p = dim_o_p - num_p
    # dim_j_p is the deficiency and dim_p = dim_j_p (mod 4), so an accepted
    # spec passes both of these
    if dim_j_p < 0:
        raise ValueError("central part of the complement is too small "
                         "to pair every free stem root")
    if dim_j_p % 4 != 0:
        raise ValueError("leftover central block of dimension %d is not "
                         "divisible by 4" % dim_j_p)
    dim_p = dim_h_p + 2 * len(dp_plus)
    if dim_p != report.dim_diff:
        raise AssertionError("complement dimension %d, criterion says %d"
                             % (dim_p, report.dim_diff))
    if dim_h_p != 2 * num_p + dim_j_p:
        raise AssertionError("Cartan part of the complement does not split "
                             "into stem pairs and the central block")
    # the two equivalent forms of the deficiency
    if not report.deficiency == dim_h_p - 2 * num_p == dim_o_p - num_p:
        raise AssertionError("the forms of the deficiency disagree")
    return ComplementData(spec, gamma_p, tuple(dp_plus), dim_h_p, dim_o_p,
                          num_p, num_p, dim_j_p, dim_p, report)
