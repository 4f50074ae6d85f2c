"""Coalgebra axioms, morphism checks, and the constructors."""

import pytest

from contramod.coalgebra import (
    Coalgebra, CoalgebraMorphism, check_coalgebra, check_morphism,
    divided_power_dual, divided_power_surjection, dual_of_algebra, grouplike,
    grouplike_elements, matrix_coalgebra, truncated_poly_algebra,
)
from contramod.fields import GF, GF2, QQ
from contramod.matrix import Mat

FIELDS = [QQ, GF2, GF(3)]


# -- coalgebra maps that the other test modules import --------------------------


def augmentation(c: Coalgebra) -> CoalgebraMorphism:
    """The counit viewed as a surjection onto the trivial coalgebra."""
    return CoalgebraMorphism(c, grouplike(c.field, 1), c.epsilon, surjective=True)


def identity_morphism(c: Coalgebra) -> CoalgebraMorphism:
    return CoalgebraMorphism(c, c, Mat.identity(c.dim, c.field), surjective=True)


@pytest.mark.parametrize("field", FIELDS)
def test_grouplike_passes(field):
    for n in (1, 2, 3):
        assert check_coalgebra(grouplike(field, n)).ok


@pytest.mark.parametrize("field", FIELDS)
def test_matrix_coalgebra_passes(field):
    assert check_coalgebra(matrix_coalgebra(field, 2)).ok


@pytest.mark.parametrize("field", FIELDS)
def test_divided_power_dual_passes(field):
    for m in (2, 3, 4):
        assert check_coalgebra(divided_power_dual(field, m)).ok


def test_divided_power_structure():
    # Delta c_2 = c_0 (x) c_2 + c_1 (x) c_1 + c_2 (x) c_0, eps = delta_0
    c = divided_power_dual(QQ, 3)
    col = c.delta.col(2)
    assert col == {0 * 3 + 2: QQ.one(), 1 * 3 + 1: QQ.one(), 2 * 3 + 0: QQ.one()}
    assert c.epsilon.col(0) == {0: QQ.one()}
    assert c.epsilon.col(2) == {}


def test_dual_of_algebra_matches_divided_power():
    mult, unit = truncated_poly_algebra(QQ, 3)
    assert dual_of_algebra(mult, unit).delta == divided_power_dual(QQ, 3).delta


def test_dual_of_algebra_involution():
    # dualizing the dual's structure tensors recovers the original algebra
    mult, unit = truncated_poly_algebra(GF2, 3)
    c = dual_of_algebra(mult, unit)
    assert c.delta.transpose() == mult
    assert c.epsilon.transpose() == unit


def test_corrupted_counit_fails():
    c = grouplike(QQ, 2)
    bad = Mat(1, 2, QQ)
    broken = type(c)(QQ, 2, c.delta, bad)
    verdict = check_coalgebra(broken)
    assert not verdict.ok
    assert any("counit" in f for f in verdict.failures)


def test_identity_morphism_passes():
    for c in (grouplike(GF2, 3), divided_power_dual(QQ, 3), matrix_coalgebra(GF(3), 2)):
        assert check_morphism(identity_morphism(c)).ok


def test_divided_power_surjection_passes():
    for field in FIELDS:
        rho = divided_power_surjection(field, 3, 2, 2)
        assert check_morphism(rho).ok
        # c_0 -> d_0, c_1 -> 0, c_2 -> d_1
        assert rho.matrix.col(0) == {0: field.one()}
        assert rho.matrix.col(1) == {}
        assert rho.matrix.col(2) == {1: field.one()}


def test_truncation_projection_is_not_coalgebra_map():
    # killing the top divided power leaves a surviving middle term
    c3 = divided_power_dual(QQ, 3)
    d2 = divided_power_dual(QQ, 2)
    proj = Mat.from_entries(2, 3, QQ, [(0, 0, 1), (1, 1, 1)])
    rho = CoalgebraMorphism(c3, d2, proj, surjective=True)
    verdict = check_morphism(rho)
    assert "comultiplication-compatibility" in verdict.failures


def test_augmentation_morphism():
    for c in (grouplike(GF2, 3), divided_power_dual(QQ, 3), matrix_coalgebra(GF(3), 2)):
        assert check_morphism(augmentation(c)).ok


def test_surjectivity_flag_is_verified():
    c3 = divided_power_dual(QQ, 3)
    rho = CoalgebraMorphism(c3, c3, Mat(3, 3, QQ), surjective=True)
    assert "surjectivity-flag" in check_morphism(rho).failures


def test_grouplike_elements_found():
    assert len(grouplike_elements(grouplike(QQ, 3))) == 3
    assert len(grouplike_elements(divided_power_dual(GF2, 3))) == 1
    assert len(grouplike_elements(matrix_coalgebra(QQ, 2))) == 0


def test_catalog_dispatch():
    assert check_coalgebra(dual_of_algebra(*truncated_poly_algebra(QQ, 3))).ok


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_constructors_keep_entries_inside_their_shapes(field, n):
    for c in (grouplike(field, n), matrix_coalgebra(field, n), divided_power_dual(field, n)):
        for m in (c.delta, c.epsilon):
            assert all(0 <= i < m.rows and 0 <= j < m.cols for i, j in m.data), (c.name, m)


def test_divided_power_dual_of_zero_is_the_zero_coalgebra():
    assert divided_power_dual(QQ, 0) == grouplike(QQ, 0)
