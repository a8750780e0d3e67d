"""Kostant's cascade of strongly orthogonal roots, from Dynkin diagram types
alone, as an oracle for the stem.

The roots orthogonal to the highest root of a simple type X form the
subsystem on the nodes of the extended Dynkin diagram that are not joined
to the affine node, whose simple factors `successors` lists:

    A_n -> A_(n-2)          B_n -> A1 + B_(n-2)     C_n -> C_(n-1)
    D_n -> A1 + D_(n-2)     E6 -> A5   E7 -> D6   E8 -> E7   F4 -> C3
    G2 -> A1

with B1 = C1 = A1, D2 = A1 + A1, D3 = A3 and nothing at rank 0.  Peeling
the highest root of X and its wings leaves exactly those roots, so the stem
of X is the cascade: the highest root of X, then the cascades of its
successors one stage deeper.  The highest root of X has 2 h^vee(X) - 4
wings, with h^vee the dual Coxeter number.  See B. Kostant, "The cascade of
orthogonal roots and the coadjoint structure of the nilradical of a Borel
subgroup of a semisimple Lie group", Moscow Math. J. 12 (2012).  Nothing
here reads a root.
"""

from __future__ import annotations

_EXCEPTIONAL = {("E", 6): [("A", 5)], ("E", 7): [("D", 6)],
                ("E", 8): [("E", 7)], ("F", 4): [("C", 3)],
                ("G", 2): [("A", 1)]}

_DUAL_COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n - 1,
                 "C": lambda n: n + 1, "D": lambda n: 2 * n - 2,
                 "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
                 "F": lambda n: 9, "G": lambda n: 4}


def named(family, rank):
    """The simple factors of a type, as (family, rank) under the names that
    `RootSystem.component_type` gives: B1 = C1 = A1, C2 = B2, D2 = A1 + A1
    and D3 = A3; none at rank 0 or below."""
    if rank <= 0:
        return []
    if family in "BC" and rank == 1:
        return [("A", 1)]
    if family == "C" and rank == 2:
        return [("B", 2)]
    if family == "D" and rank == 2:
        return [("A", 1), ("A", 1)]
    if family == "D" and rank == 3:
        return [("A", 3)]
    return [(family, rank)]


def successors(family, rank):
    """The simple factors of the roots orthogonal to the highest root."""
    if family == "A":
        out = [("A", rank - 2)]
    elif family == "B":
        out = [("A", 1), ("B", rank - 2)]
    elif family == "C":
        out = [("C", rank - 1)]
    elif family == "D":
        out = [("A", 1), ("D", rank - 2)]
    else:
        out = _EXCEPTIONAL[(family, rank)]
    return [t for f, r in out for t in named(f, r)]


def wing_count(family, rank):
    """2 h^vee - 4: the number of wings of the highest root."""
    return 2 * _DUAL_COXETER[family](rank) - 4


def cascade(family, rank):
    """The cascade tree of a simple type: (type name, wing count of its
    highest root, the trees of its successors, sorted)."""
    return ("%s%d" % (family, rank), wing_count(family, rank),
            tuple(sorted(cascade(f, r) for f, r in successors(family, rank))))


def shape_cascade(shape):
    """The sorted cascade trees of the simple factors of a ReductiveShape."""
    return sorted(cascade(f, r) for t in shape.simples
                  for f, r in named(t.family, t.rank))


def nodes(trees, stage=0):
    """(stage, number of successors) of every node of these trees."""
    out = []
    for _, _, kids in trees:
        out.append((stage, len(kids)))
        out += nodes(kids, stage + 1)
    return out
