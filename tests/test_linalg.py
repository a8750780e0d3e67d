import random
from fractions import Fraction

import pytest

from stemhc import linalg
from stemhc.scalars import TowerScalar, ZERO, ONE, I


def F(x):
    return Fraction(x)


def random_fraction_matrix(rng, n, m):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
            for _ in range(n)]


def test_rref_simple():
    rows, piv = linalg.rref([[F(0), F(2)], [F(3), F(1)]])
    assert piv == [0, 1]
    assert rows == [[F(1), F(0)], [F(0), F(1)]]


def test_rref_drops_zero_rows():
    rows, piv = linalg.rref([[F(1), F(2)], [F(2), F(4)]])
    assert piv == [0]
    assert rows == [[F(1), F(2)]]


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_fraction_matrix(rng, n, m)
        r = len(linalg.rref(mat)[0])
        ker = linalg.kernel_basis(mat)
        assert r + len(ker) == m
        for v in ker:
            assert all(x == 0 for x in linalg.mat_vec(mat, v))


def test_kernel_of_empty():
    ker = linalg.kernel_basis([], ncols=3)
    assert len(ker) == 3


def test_span_membership():
    rows = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    sp = linalg.Span(rows)
    assert sp.dim == 2
    # v lies in the span iff adding it leaves the span unchanged
    assert linalg.Span(rows + [[F(1), F(2), F(1)]]) == sp
    assert linalg.Span(rows + [[F(0), F(0), F(1)]]) != sp
    assert (linalg.Span([[F(1), F(1), F(0)], [F(0), F(1), F(1)]])
            == linalg.Span([[F(1), F(0), F(-1)], [F(0), F(2), F(2)]]))
    assert (linalg.Span([[F(1), F(0), F(0)]])
            != linalg.Span([[F(0), F(1), F(0)]]))


def test_invert_random():
    rng = random.Random(11)
    done = 0
    while done < 15:
        n = rng.randint(1, 5)
        mat = random_fraction_matrix(rng, n, n)
        if len(linalg.rref(mat)[0]) < n:
            continue
        inv = linalg.invert(mat)
        assert linalg.mat_mul(mat, inv) == \
            [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
        done += 1


def test_invert_singular():
    with pytest.raises(ValueError):
        linalg.invert([[F(1), F(2)], [F(2), F(4)]])


def test_tower_scalar_matrices():
    mat = [[I, ONE], [ZERO, I]]
    inv = linalg.invert(mat)
    assert linalg.mat_mul(mat, inv) == [[ONE, ZERO], [ZERO, ONE]]
    ker = linalg.kernel_basis([[ONE, I]])
    assert len(ker) == 1
    got = linalg.mat_vec([[ONE, I]], ker[0])
    assert not got[0]


def test_tower_span():
    v1 = [ONE, I]
    v2 = [I, -ONE]          # = i * v1
    sp = linalg.Span([v1, v2])
    assert sp.dim == 1
    assert linalg.Span([v1, v2, [TowerScalar(2), TowerScalar(0, 2)]]) == sp
