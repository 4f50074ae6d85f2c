"""Kernel/image/equalizer/coequalizer engine, checked against brute force."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from contramod.fields import GF, GF2, GF3, QQ
from contramod.linalg import (
    Subspace, coequalizer, equalizer, image, kernel, rank, solve,
)
from contramod.matrix import Mat, kron

FIELDS = [QQ, GF2, GF3, GF(5)]


def random_mat(rng, rows, cols, field, density=0.6):
    entries = []
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries.append((i, j, field.random(rng)))
    return Mat.from_entries(rows, cols, field, entries)


def dense_rank_oracle(mat):
    """Independent dense row reduction, no shared code with the engine."""
    f = mat.field
    dense = [row[:] for row in mat.to_dense()]
    r = 0
    for col in range(mat.cols):
        piv = None
        for i in range(r, mat.rows):
            if dense[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        dense[r], dense[piv] = dense[piv], dense[r]
        inv = f.invert(dense[r][col])
        dense[r] = [f.mul(inv, v) for v in dense[r]]
        for i in range(mat.rows):
            if i != r and dense[i][col] != 0:
                c = dense[i][col]
                dense[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(dense[i], dense[r])]
        r += 1
        if r == mat.rows:
            break
    return r


def enumerate_vectors(field, n):
    """All vectors of k^n for a small prime field."""
    p = field.characteristic
    assert p > 0
    for combo in product(range(p), repeat=n):
        yield {i: v for i, v in enumerate(combo) if v}


@pytest.mark.parametrize("field", FIELDS)
def test_matmul_against_dense(field):
    rng = random.Random(7)
    for _ in range(20):
        a = random_mat(rng, 3, 4, field)
        b = random_mat(rng, 4, 2, field)
        c = a @ b
        da, db = a.to_dense(), b.to_dense()
        for i in range(3):
            for j in range(2):
                acc = field.zero()
                for k in range(4):
                    acc = field.add(acc, field.mul(da[i][k], db[k][j]))
                assert c[i, j] == acc


def test_kron_identity_and_mixed_shapes():
    for field in FIELDS:
        assert kron(Mat.identity(2, field), Mat.identity(2, field)) == Mat.identity(4, field)
    rng = random.Random(3)
    f = random_mat(rng, 2, 3, QQ)
    g = random_mat(rng, 3, 2, QQ)
    k = kron(f, g)
    # direct double-loop oracle
    for i in range(2):
        for j in range(3):
            for a in range(3):
                for b in range(2):
                    assert k[i * 3 + a, j * 2 + b] == f[i, j] * g[a, b]


def test_kron_functoriality():
    rng = random.Random(11)
    for field in FIELDS:
        f = random_mat(rng, 2, 3, field)
        u = random_mat(rng, 3, 2, field)
        g = random_mat(rng, 3, 2, field)
        v = random_mat(rng, 2, 3, field)
        assert kron(f, g) @ kron(u, v) == kron(f @ u, g @ v)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_kron_associative(a, b, c, rng):
    f = random_mat(rng, a, b, GF3)
    g = random_mat(rng, b, c, GF3)
    h = random_mat(rng, c, a, GF3)
    assert kron(kron(f, g), h) == kron(f, kron(g, h))


def test_equalizer_trivial_cases():
    for field in FIELDS:
        f = Mat.identity(3, field)
        assert equalizer(f, f).dim == 3
        g = Mat.zeros(2, 2, field)
        assert equalizer(Mat.identity(2, field), g).dim == 0


def test_equalizer_shape_mismatch():
    with pytest.raises(ValueError):
        equalizer(Mat.identity(2, QQ), Mat.identity(3, QQ))
    with pytest.raises(ValueError):
        coequalizer(Mat.identity(2, QQ), Mat.identity(3, QQ))


def test_equalizer_brute_force_f2():
    # exhaustive enumeration of all 2^3 vectors as the oracle
    rng = random.Random(23)
    for _ in range(15):
        f = random_mat(rng, 4, 3, GF2)
        g = random_mat(rng, 4, 3, GF2)
        eq = equalizer(f, g)
        expected = [
            v for v in enumerate_vectors(GF2, 3)
            if f.apply(v) == g.apply(v)
        ]
        # expected includes the zero vector; dim check via count: |V| = 2^dim
        assert 2 ** eq.dim == len(expected)
        for v in expected:
            assert eq.contains(v)


def test_equalizer_rank_nullity():
    rng = random.Random(5)
    for field in FIELDS:
        for _ in range(10):
            f = random_mat(rng, 4, 3, field)
            g = random_mat(rng, 4, 3, field)
            assert equalizer(f, g).dim + rank(f - g) == 3


def test_coequalizer_trivial_and_rank_oracle():
    for field in FIELDS:
        f = Mat.identity(2, field)
        res = coequalizer(f, f)
        assert res.dim == 2
        assert res.quotient_map == Mat.identity(2, field)
        res = coequalizer(Mat.identity(2, field), Mat.zeros(2, 2, field))
        assert res.dim == 0
    rng = random.Random(9)
    for _ in range(10):
        f = random_mat(rng, 4, 3, QQ)
        g = random_mat(rng, 4, 3, QQ)
        res = coequalizer(f, g)
        assert res.dim == 4 - dense_rank_oracle(f - g)
        # surjective with kernel = Im(f-g)
        assert rank(res.quotient_map) == res.dim
        assert (res.quotient_map @ (f - g)).is_zero()
        assert res.quotient_map @ res.section == Mat.identity(res.dim, QQ)


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_kernel_and_image(field):
    rng = random.Random(31)
    for _ in range(15):
        m = random_mat(rng, 4, 5, field)
        ker = kernel(m)
        for col in ker.basis_columns():
            assert m.apply(col) == {}
        assert ker.dim + rank(m) == 5
        img = image(m)
        assert img.dim == rank(m)
        for j, col in m.columns().items():
            assert img.contains(col)


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_solve(field):
    rng = random.Random(13)
    for _ in range(15):
        m = random_mat(rng, 4, 3, field)
        x_true = {i: field.random(rng) for i in range(3)}
        rhs = m.apply(x_true)
        x = solve(m, rhs)
        assert x is not None
        assert m.apply(x) == rhs
    # infeasible system
    m = Mat.from_entries(2, 1, field, [(0, 0, 1)])
    assert solve(m, {1: field.one()}) is None


def test_subspace_ops():
    f = GF2
    u = Subspace.from_columns(4, f, [{0: 1, 1: 1}, {2: 1}])
    v = Subspace.from_columns(4, f, [{0: 1, 1: 1}, {3: 1}])
    w = u.intersect(v)
    assert w.dim == 1 and w.contains({0: 1, 1: 1})
    s = u.add(v)
    assert s.dim == 3
    assert u == Subspace.from_columns(4, f, [{2: 1}, {0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}])


def test_subspace_coords():
    rng = random.Random(41)
    for field in [QQ, GF3]:
        m = random_mat(rng, 5, 3, field, density=0.9)
        sub = image(m)
        combo = {i: field.random(rng) for i in range(sub.dim)}
        vec = sub.basis.apply(combo)
        coords = sub.coords(vec)
        assert coords is not None
        assert sub.basis.apply(coords) == vec
        assert sub.coords({4: field.one(), 0: field.one()}) is None or sub.contains(
            {4: field.one(), 0: field.one()}
        )


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_subspace_contains_against_rank_oracle(field):
    rng = random.Random(43)
    for _ in range(80):
        ambient, k = rng.randint(1, 6), rng.randint(0, 4)
        gens = random_mat(rng, ambient, k, field, density=0.5)
        if rng.random() < 0.5:
            vec = gens.apply({j: field.random(rng) for j in range(k)})
        else:
            vec = random_mat(rng, ambient, 1, field).col(0)
        sub = Subspace.from_columns(ambient, field, gens.columns().values())
        both = gens.hstack(Mat.column(vec, ambient, field))
        assert sub.contains(vec) == (dense_rank_oracle(both) == dense_rank_oracle(gens))


def test_repeated_runs_identical():
    rng1, rng2 = random.Random(77), random.Random(77)
    m1 = random_mat(rng1, 4, 4, GF3)
    m2 = random_mat(rng2, 4, 4, GF3)
    assert m1 == m2 and kernel(m1) == kernel(m2) and image(m1) == image(m2)


@given(st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_coequalizer_dimension_identity(rows, cols, rng):
    f = random_mat(rng, rows, cols, GF3)
    g = random_mat(rng, rows, cols, GF3)
    res = coequalizer(f, g)
    assert res.dim + rank(f - g) == rows
    assert (res.quotient_map @ (f - g)).is_zero()


@given(st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_equalizer_dimension_identity(rows, cols, rng):
    f = random_mat(rng, rows, cols, GF2)
    g = random_mat(rng, rows, cols, GF2)
    assert equalizer(f, g).dim + rank(f - g) == cols


def test_gf2_engine_agrees_with_generic_engine():
    """The bitmask F2 path and the generic-field path must produce identical
    ranks, kernels and reduced vectors on the same data."""
    from contramod.linalg import _EchelonGF2, _EchelonGeneric

    rng = random.Random(321)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        m = random_mat(rng, rows, cols, GF2)
        fast = _EchelonGF2(GF2, cols)
        slow = _EchelonGeneric(GF2, cols)
        for row in m.row_groups().values():
            assert fast.add_row(row) == slow.add_row(dict(row))
        assert fast.rank() == slow.rank()
        fast.finalize()
        slow.finalize()
        assert fast.row_items() == slow.row_items()
        probe = {j: 1 for j in rng.sample(range(cols), k=min(cols, 3))}
        assert fast.reduce_vector(dict(probe)) == slow.reduce_vector(dict(probe))
