"""The Chevalley bases of type A_n, their compact conjugation and every root
rotation against the matrix model in su(n+1) of matrix_oracle, which solves
its own signs and shares no convention with the library."""

import pytest

from stemhc.chevalley import make_basis
from stemhc.rootsystems import parse_shape
from stemhc.scalars import EIGHTH_ROOT, I, ONE, TowerScalar

from matrix_oracle import SuModel, commutator, mat_mul, star

TYPES = ["A%d" % n for n in range(1, 7)]
PHASES = [ONE, I, EIGHTH_ROOT, TowerScalar.parse("3/5+4/5i")]


@pytest.mark.parametrize("text", TYPES)
def test_structure_constants_match_matrix_commutators(text):
    cb = make_basis(parse_shape(text))
    model = SuModel(cb)
    assert model.constant_mismatches() == []
    mats = [model.matrix(b) for b in cb.basis]
    bad = [(k, l) for k, x in enumerate(cb.basis)
           for l, y in enumerate(cb.basis)
           if model.matrix(cb.bracket(x, y)) != commutator(mats[k], mats[l])]
    assert bad == []


@pytest.mark.parametrize("text", TYPES)
def test_tau_is_minus_the_conjugate_transpose(text):
    cb = make_basis(parse_shape(text))
    model = SuModel(cb)
    # i times each basis vector too, as tau is antilinear
    for x in cb.basis + tuple(b.scale(I) for b in cb.basis):
        want = {ij: -c for ij, c in star(model.matrix(x)).items()}
        assert model.matrix(cb.tau(x)) == want, str(x)


@pytest.mark.parametrize("text", TYPES)
def test_root_rotation_is_conjugation_by_the_cayley_element(text):
    # every root, not only the stem roots, at phases of every grade pattern
    cb = make_basis(parse_shape(text))
    model = SuModel(cb)
    one = {(k, k): ONE for k in range(model.size)}
    for rho in PHASES:
        for g in cb.rs.roots:
            assert mat_mul(*model.rotation(g, rho)) == one
            assert model.rotation_mismatches(g, rho) == [], "%s %s" % (g, rho)


def test_model_rejects_other_types():
    for text in ("B2", "c^1 x A2", "A1 x A1"):
        with pytest.raises(ValueError):
            SuModel(make_basis(parse_shape(text)))
