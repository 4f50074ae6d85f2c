"""Kernel/image/equalizer/coequalizer engine, checked against brute force."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from contramod.fields import GF, GF2, QQ
from contramod.linalg import (
    Subspace, _EchelonGeneric, coequalizer, equalizer, image, kernel, make_echelon,
    quotient_by_image, rank, solve,
)
from contramod.matrix import Mat, _col, _ints, _row, kron_identity

FIELDS = [QQ, GF2, GF(3), GF(5)]


def random_mat(rng, rows, cols, field, density=0.6):
    entries = []
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries.append((i, j, field.random(rng)))
    return Mat.from_entries(rows, cols, field, entries)


def from_dense(rows, field):
    """A Mat from a list of dense rows of scalars."""
    entries = ((i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row))
    return Mat.from_entries(len(rows), len(rows[0]) if rows else 0, field, entries)


def to_dense(mat):
    """The rows of a Mat as dense lists, zeros included."""
    dense = [[mat.field.zero()] * mat.cols for _ in range(mat.rows)]
    for (i, j), v in mat.data.items():
        dense[i][j] = v
    return dense


def invert(field, a):
    """The inverse of a nonzero scalar: by Fraction over Q, by pow mod p."""
    if field.characteristic == 0:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return field.of(1 / Fraction(a))
    return pow(a, -1, field.characteristic)


def full_space(ambient, field):
    """All of k^ambient as a Subspace: its canonical basis is the identity."""
    return Subspace(ambient, field, Mat.identity(ambient, field), list(range(ambient)))


def hstack(a, b):
    """The block matrix [a | b]."""
    assert a.rows == b.rows and a.field == b.field
    data = dict(a.data)
    data.update({(i, j + a.cols): v for (i, j), v in b.data.items()})
    return Mat(a.rows, a.cols + b.cols, a.field, data)


def intersect(u, v):
    """u meet v: a kernel vector of [u.basis | v.basis] has its first u.dim
    coordinates on a combination of u's basis that lies in v."""
    assert u.ambient == v.ambient
    cols = [u.basis.apply({i: x for i, x in kcol.items() if i < u.dim})
            for kcol in kernel(hstack(u.basis, v.basis)).basis_columns()]
    return Subspace.from_columns(u.ambient, u.field, cols)


def gauss_jordan(dense, ncols, field):
    """Dense Gauss-Jordan on field scalars (ints and ``Fraction``s over Q), no shared
    code with the engines: the pivot columns and the nonzero rows of the
    reduced row echelon form, each row a dense list with pivot entry 1."""
    f = field
    dense = [[f.of(v) for v in row] for row in dense]
    r = 0
    pivots = []
    for col in range(ncols):
        piv = next((i for i in range(r, len(dense)) if dense[i][col] != 0), None)
        if piv is None:
            continue
        dense[r], dense[piv] = dense[piv], dense[r]
        inv = invert(f, dense[r][col])
        dense[r] = [f.mul(inv, v) for v in dense[r]]
        for i in range(len(dense)):
            if i != r and dense[i][col] != 0:
                c = dense[i][col]
                dense[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(dense[i], dense[r])]
        pivots.append(col)
        r += 1
    return pivots, dense[:r]


def dense_rank_oracle(mat):
    """Independent dense row reduction, no shared code with the engine."""
    return len(gauss_jordan(to_dense(mat), mat.cols, mat.field)[0])


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
        da, db = to_dense(a), to_dense(b)
        for i in range(3):
            for j in range(2):
                acc = field.zero()
                for k in range(4):
                    acc = field.add(acc, field.mul(da[i][k], db[k][j]))
                assert c[i, j] == acc


def test_kron_identity_and_mixed_shapes():
    for field in FIELDS:
        assert Mat.identity(2, field).kron(Mat.identity(2, field)) == Mat.identity(4, field)
    rng = random.Random(3)
    f = random_mat(rng, 2, 3, QQ)
    g = random_mat(rng, 3, 2, QQ)
    k = f.kron(g)
    # direct double-loop oracle
    for i in range(2):
        for j in range(3):
            for a in range(3):
                for b in range(2):
                    assert k[i * 3 + a, j * 2 + b] == f[i, j] * g[a, b]


@pytest.mark.parametrize("field", FIELDS)
def test_kron_identity_copies_kron_with_an_identity(field):
    """Id_n (x) t and t (x) Id_n hold t's own scalar objects, no products."""
    rng = random.Random(17)
    for _ in range(10):
        t = random_mat(rng, rng.randint(1, 3), rng.randint(1, 3), field)
        n = rng.randint(0, 3)
        eye = Mat.identity(n, field)
        left, right = kron_identity(t, n, left=True), kron_identity(t, n, left=False)
        assert left == eye.kron(t) and right == t.kron(eye)
        own = {id(v) for v in t.data.values()}
        assert all(id(v) in own for m in (left, right) for v in m.data.values())


def test_kron_functoriality():
    rng = random.Random(11)
    for field in FIELDS:
        f = random_mat(rng, 2, 3, field)
        u = random_mat(rng, 3, 2, field)
        g = random_mat(rng, 3, 2, field)
        v = random_mat(rng, 2, 3, field)
        assert f.kron(g) @ u.kron(v) == (f @ u).kron(g @ v)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_kron_associative(a, b, c, rng):
    f = random_mat(rng, a, b, GF(3))
    g = random_mat(rng, b, c, GF(3))
    h = random_mat(rng, c, a, GF(3))
    assert f.kron(g).kron(h) == f.kron(g.kron(h))


def test_equalizer_trivial_cases():
    for field in FIELDS:
        f = Mat.identity(3, field)
        assert equalizer(f, f).dim == 3
        g = Mat(2, 2, field)
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
        res = coequalizer(Mat.identity(2, field), Mat(2, 2, field))
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


def loop_quotient(sub):
    """The quotient by sub written one non-pivot row i at a time: 1 at i,
    and minus each basis column's entry at i in that column's pivot."""
    f, pivots = sub.field, sub.pivots
    nonpivot = [i for i in range(sub.ambient) if i not in pivots]
    cols = sub.basis_columns()
    entries = []
    for t, i in enumerate(nonpivot):
        entries.append((t, i, f.one()))
        for s, col in enumerate(cols):
            if col.get(i, 0) != 0:
                entries.append((t, pivots[s], f.neg(col[i])))
    q = Mat.from_entries(len(nonpivot), sub.ambient, f, entries)
    section = Mat.from_entries(sub.ambient, len(nonpivot), f,
                               [(i, t, f.one()) for t, i in enumerate(nonpivot)])
    return q, len(nonpivot), section


@pytest.mark.parametrize("field", [QQ, GF2, GF(3)])
def test_quotient_by_image_matches_row_loop(field):
    """The quotient map and section, read off the pivot split, equal the
    row-by-row writer on seeded subspaces, {0} and the full space included;
    descend equals the product with the section, and raises on a map that
    does not kill the subspace."""
    rng = random.Random(437)
    for ambient in range(7):
        subs = [Subspace.from_columns(ambient, field, []), full_space(ambient, field)]
        for _ in range(6):
            cols = random_mat(rng, ambient, rng.randint(1, 4), field, density=0.5).columns()
            subs.append(Subspace.from_columns(ambient, field, cols.values()))
        for sub in subs:
            co = quotient_by_image(sub)
            assert (co.quotient_map, co.dim, co.section) == loop_quotient(sub)
            assert co.image_subspace == sub
            assert co.where == {i: t for (i, t) in co.section.data}
            lifted = random_mat(rng, 3, co.dim, field) @ co.quotient_map
            assert co.descend(lifted, "no") == lifted @ co.section
            if sub.dim:
                # 1 at the first pivot row meets basis column 0 in its pivot entry 1
                bad = lifted + Mat(3, ambient, field, {(0, sub.pivots[0]): field.one()})
                with pytest.raises(ValueError, match="no"):
                    co.descend(bad, "no")


@pytest.mark.parametrize("field", [QQ, GF2, GF(3)])
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


@pytest.mark.parametrize("field", [QQ, GF2, GF(3)])
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
    w = intersect(u, v)
    assert w.dim == 1 and w.contains({0: 1, 1: 1})
    s = u.add(v)
    assert s.dim == 3
    assert u == Subspace.from_columns(4, f, [{2: 1}, {0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}])


def test_subspace_coords():
    rng = random.Random(41)
    for field in [QQ, GF(3)]:
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


@pytest.mark.parametrize("field", [QQ, GF2, GF(3)])
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
        both = hstack(gens, Mat(ambient, 1, field, {(i, 0): x for i, x in vec.items()}))
        assert sub.contains(vec) == (dense_rank_oracle(both) == dense_rank_oracle(gens))


def test_repeated_runs_identical():
    rng1, rng2 = random.Random(77), random.Random(77)
    m1 = random_mat(rng1, 4, 4, GF(3))
    m2 = random_mat(rng2, 4, 4, GF(3))
    assert m1 == m2 and kernel(m1) == kernel(m2) and image(m1) == image(m2)


@given(st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_coequalizer_dimension_identity(rows, cols, rng):
    f = random_mat(rng, rows, cols, GF(3))
    g = random_mat(rng, rows, cols, GF(3))
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
        fast = _EchelonGF2(GF2)
        slow = _EchelonGeneric(GF2)
        for row in m.row_groups().values():
            assert fast.add_row(row) == slow.add_row(dict(row))
        assert fast.rank() == slow.rank()
        fast.finalize()
        slow.finalize()
        assert fast.row_items() == slow.row_items()
        probe = {j: 1 for j in rng.sample(range(cols), k=min(cols, 3))}
        assert fast.reduce_vector(dict(probe)) == slow.reduce_vector(dict(probe))


# -- the fraction-free kernels against dense Fraction oracles --------------------


def wide_scalar(rng, field):
    """A nonzero scalar; over Q with numerator and denominator up to 10^6
    and either sign."""
    if field.characteristic:
        return rng.randrange(1, field.characteristic)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**6))


def hard_rows(rng, nrows, ncols, field):
    """Sparse rows with wide scalars, mixed with zero rows, duplicate rows
    and combinations of earlier rows."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append({})
        elif kind < 0.3 and rows:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.45 and len(rows) > 1:
            a, b = rng.sample(rows, 2)
            c = wide_scalar(rng, field)
            combo = {j: field.add(a.get(j, field.zero()), field.mul(c, b.get(j, field.zero())))
                     for j in set(a) | set(b)}
            rows.append({j: v for j, v in combo.items() if v != 0})
        else:
            cols = rng.sample(range(ncols), rng.randint(1, ncols))
            rows.append({j: wide_scalar(rng, field) for j in cols})
    return rows


def as_dense(rows, ncols, field):
    return [[row.get(j, field.zero()) for j in range(ncols)] for row in rows]


def as_sparse(dense_row):
    return {j: v for j, v in enumerate(dense_row) if v != 0}


def reduce_oracle(pivots, rref, vec, ncols, field):
    """vec minus the combination of reduced rows that clears its pivot
    columns."""
    vec = [vec.get(j, field.zero()) for j in range(ncols)]
    for p, row in zip(pivots, rref):
        c = vec[p]
        vec = [field.sub(a, field.mul(c, b)) for a, b in zip(vec, row)]
    return as_sparse(vec)


def is_canonical(v, field):
    """A nonzero canonical scalar: over F_p a representative 1..p-1, over Q a
    nonzero int, or a Fraction with denominator > 1."""
    if field.characteristic:
        return type(v) is int and 0 < v < field.characteristic
    return (type(v) is int and v != 0) or (type(v) is Fraction and v.denominator > 1)


ORACLE_FIELDS = [QQ, GF2, GF(3), GF(5)]


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_generic_engine_matches_dense_gauss_jordan(field):
    """Rank, reduced rows and residuals of the fraction-free engine, before
    and after back elimination, equal those of dense Gauss-Jordan."""
    rng = random.Random(2024)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = hard_rows(rng, nrows, ncols, field)
        pivots, rref = gauss_jordan(as_dense(rows, ncols, field), ncols, field)
        ech = _EchelonGeneric(field)
        for row in rows:
            ech.add_row(dict(row))
        assert ech.rank() == len(pivots)
        probe = {j: wide_scalar(rng, field) for j in rng.sample(range(ncols), rng.randint(1, ncols))}
        expected = reduce_oracle(pivots, rref, probe, ncols, field)
        assert ech.reduce_vector(dict(probe)) == expected
        ech.finalize()
        items = ech.row_items()
        assert items == [(p, as_sparse(row)) for p, row in zip(pivots, rref)]
        assert all(is_canonical(v, field) for _, row in items for v in row.values())
        residual = ech.reduce_vector(dict(probe))
        assert residual == expected
        assert all(is_canonical(v, field) for v in residual.values())


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_linalg_matches_dense_gauss_jordan(field):
    """rank, kernel, solve and Subspace.from_columns on wide scalars, zero
    and duplicate rows, against bases read off dense Gauss-Jordan."""
    rng = random.Random(99)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = hard_rows(rng, nrows, ncols, field)
        mat = Mat.from_entries(nrows, ncols, field,
                               [(i, j, v) for i, row in enumerate(rows) for j, v in row.items()])
        pivots, rref = gauss_jordan(as_dense(rows, ncols, field), ncols, field)
        assert rank(mat) == len(pivots)

        sub = Subspace.from_columns(ncols, field, rows)
        assert sub.pivots == pivots
        assert sub.basis_columns() == [as_sparse(row) for row in rref]

        # the kernel's canonical basis: the null vectors read off rref, reduced
        null = []
        for j in (j for j in range(ncols) if j not in pivots):
            vec = {j: field.one()}
            vec.update({p: field.neg(row[j]) for p, row in zip(pivots, rref) if row[j] != 0})
            null.append(vec)
        k_pivots, k_rref = gauss_jordan(as_dense(null, ncols, field), ncols, field)
        ker = kernel(mat)
        assert ker.pivots == k_pivots
        assert ker.basis_columns() == [as_sparse(row) for row in k_rref]

        # one solution with free variables 0, or None when the system is infeasible
        if rng.random() < 0.5:
            rhs = mat.apply({j: wide_scalar(rng, field) for j in range(ncols)})
        else:
            rhs = {i: wide_scalar(rng, field) for i in rng.sample(range(nrows), rng.randint(1, nrows))}
        aug = [row + [rhs.get(i, field.zero())] for i, row in enumerate(to_dense(mat))]
        a_pivots, a_rref = gauss_jordan(aug, ncols + 1, field)
        if ncols in a_pivots:
            assert solve(mat, rhs) is None
        else:
            expected = {p: row[ncols] for p, row in zip(a_pivots, a_rref) if row[ncols] != 0}
            assert solve(mat, rhs) == expected


def two_elimination_kernel(mat):
    """The kernel in two eliminations: the null vectors read off the rows
    reduced in column order, then made canonical by a second elimination."""
    f = mat.field
    ech = make_echelon(f)
    for row in mat.row_groups().values():
        ech.add_row(row)
    ech.finalize()
    items = ech.row_items()
    pivot_set = {p for p, _ in items}
    cols = []
    for j in (j for j in range(mat.cols) if j not in pivot_set):
        vec = {j: f.one()}
        vec.update({p: f.neg(row[j]) for p, row in items if row.get(j, 0) != 0})
        cols.append(vec)
    return Subspace.from_columns(mat.cols, f, cols)


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_kernel_matches_two_elimination_oracle(field):
    """kernel, read off one elimination with the columns reversed, is the
    Subspace of the two-elimination oracle: equal pivots and basis, on wide
    scalars with zero, duplicate and combined rows, and on the zero matrix,
    no rows, no columns and full column rank."""
    rng = random.Random(3101)
    mats = []
    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = hard_rows(rng, nrows, ncols, field)
        mats.append(Mat.from_entries(nrows, ncols, field,
                                     [(i, j, v) for i, row in enumerate(rows) for j, v in row.items()]))
    # upper triangular with a nonzero diagonal: full column rank, zero kernel
    triangular = Mat.from_entries(5, 3, field, [(i, j, wide_scalar(rng, field))
                                                for j in range(3) for i in range(j + 1)])
    mats += [Mat(3, 4, field), Mat(0, 4, field), Mat(3, 0, field), Mat(0, 0, field),
             Mat.identity(4, field), triangular]
    for mat in mats:
        got, want = kernel(mat), two_elimination_kernel(mat)
        assert (got.ambient, got.pivots, got.basis) == (want.ambient, want.pivots, want.basis), mat.data
    assert [kernel(m).dim for m in mats[-6:]] == [4, 4, 0, 0, 0, 0]


def dense_product(a, b, field):
    return [[_dot(row, [b[k][j] for k in range(len(b))], field) for j in range(len(b[0]))]
            for row in a]


def _dot(xs, ys, field):
    acc = field.zero()
    for x, y in zip(xs, ys):
        acc = field.add(acc, field.mul(x, y))
    return acc


def wide_mat(rng, rows, cols, field):
    entries = [(i, j, wide_scalar(rng, field)) for i in range(rows) for j in range(cols)
               if rng.random() < 0.6]
    return Mat.from_entries(rows, cols, field, entries)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_products_match_dense_loops(field):
    """``@``, ``apply`` and ``kron`` on integers against dense loops of field
    arithmetic, with canonical nonzero scalars in every output."""
    rng = random.Random(5)
    for _ in range(25):
        n, m, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, b = wide_mat(rng, n, m, field), wide_mat(rng, m, k, field)
        prod_ = a @ b
        assert prod_ == from_dense(dense_product(to_dense(a), to_dense(b), field), field)
        vec = {j: wide_scalar(rng, field) for j in rng.sample(range(m), rng.randint(1, m))}
        col = [[vec.get(j, field.zero())] for j in range(m)]
        assert a.apply(vec) == as_sparse([r[0] for r in dense_product(to_dense(a), col, field)])
        kr = a.kron(b)
        da, db = to_dense(a), to_dense(b)
        dense_kron = [[field.mul(da[i][j], db[s][t]) for j in range(m) for t in range(k)]
                      for i in range(n) for s in range(m)]
        assert kr == from_dense(dense_kron, field)
        for out in (prod_.data, a.apply(vec), kr.data):
            assert all(is_canonical(v, field) for v in out.values())


def test_product_scales_are_per_line():
    """Each row (or column) of a Q operand is scaled by the lcm of its own
    denominators, not the whole operand's, and the products stay exact."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    a = Mat.from_entries(4, 3, QQ, [(i, j, Fraction(1, primes[3 * i + j]))
                                    for i in range(4) for j in range(3)])
    _, rows = _ints(a.data, QQ, _row)
    assert rows == {i: primes[3 * i] * primes[3 * i + 1] * primes[3 * i + 2] for i in range(4)}
    _, cols = _ints(a.data, QQ, _col)
    assert cols == {j: primes[j] * primes[3 + j] * primes[6 + j] * primes[9 + j] for j in range(3)}
    b = a.transpose()
    assert a @ b == from_dense(dense_product(to_dense(a), to_dense(b), QQ), QQ)
    vec = {0: Fraction(1, 41), 2: Fraction(-3, 43)}
    assert a.apply(vec) == as_sparse([r[0] for r in dense_product(
        to_dense(a), [[vec.get(j, QQ.zero())] for j in range(3)], QQ)])
    kr = a.kron(b)
    assert all(kr[i * 3 + s, j * 4 + t] == a[i, j] * b[s, t]
               for i in range(4) for j in range(3) for s in range(3) for t in range(4))


def test_from_entries_drops_cancelling_entries():
    q = Mat.from_entries(2, 2, QQ, [(0, 0, Fraction(1, 3)), (0, 0, Fraction(-1, 3)),
                                    (1, 1, "2/4"), (1, 1, Fraction(-1, 2)), (0, 1, 0), (1, 0, 3)])
    assert q.data == {(1, 0): 3} and type(q.data[1, 0]) is int
    f3 = Mat.from_entries(2, 2, GF(3), [(0, 0, 2), (0, 0, 1), (1, 1, 5), (1, 1, -1), (0, 1, 3)])
    assert f3.data == {(1, 1): 1}
