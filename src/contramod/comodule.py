"""Comodules over a coalgebra: axioms, cofree objects, hom spaces, cotensor,
duals, subobjects, quotients and injectivity.

Every coaction is stored once, in left layout: a comodule of dimension m
over an n-dimensional coalgebra C keeps an (n*m) x m matrix
``left_coaction``, row c*m + i meaning e_c (x) e_i.  A right C-comodule is
stored as a left C^cop-comodule, so every construction runs on one layout;
``side`` says whether the stored matrix is over C or C^cop, which only the
axiom checker and the constructors that read Delta need.  The right layout,
row i*n + c, is the view ``coaction``.  The one reindexing of a stored
matrix is :func:`dual_comodule`'s block transpose.  A contramodule is a left
comodule on the same matrix, so the functions here are the contramodule
ones too, under the same names: those that build a new object of the same
kind return a contramodule for one.  Hom(M, N) is the
kernel of one system on M* (x) N, written from the stored entries.  Over F2
the stored matrix is also read packed, by :func:`_gf2_masks`, in the one F2
mask layout of the package, ``{monomial c: {column k: mask}}``: the mask of
block c of column k is one int with bit i for each stored entry
(c*m + i, k).  The tower's stages (:func:`sl2.kernel_stage_masks`), its F2
Cohom dimensions (:func:`contramodule.gf2_cohom_dims`) and the F2
coassociativity square all read that layout.
"""

from __future__ import annotations

from math import lcm

from .coalgebra import Coalgebra, Verdict
from .fields import Record
from .linalg import Coequalizer, Subspace, kernel, quotient_by_image, split_solve
from .matrix import Mat, _ints, _scalars, kron_identity, push


class Comodule(Record):
    def __init__(self, coalgebra: Coalgebra, side: str, dim: int, left_coaction: Mat, name: str = ""):
        n, m = coalgebra.dim, dim
        if side not in ("left", "right"):
            raise ValueError(f"side must be left or right, got {side!r}")
        if left_coaction.rows != n * m or left_coaction.cols != m:
            raise ValueError(f"coaction must be {n * m}x{m}")
        if left_coaction.field != coalgebra.field:
            raise ValueError("field mismatch")
        self.coalgebra = coalgebra
        self.side = side     # "left" | "right"
        self.dim = dim
        self.left_coaction = left_coaction   # (n * dim) x dim, row c*dim + i; over C^cop when side is right
        self.name = name

    @property
    def field(self):
        return self.coalgebra.field

    @property
    def coaction(self) -> Mat:
        """The coaction in its side's layout: ``left_coaction`` for a left
        comodule, rows i*n + c for a right one, M -> M (x) C."""
        if self.side == "left":
            return self.left_coaction
        n, md = self.coalgebra.dim, self.dim
        return Mat(md * n, md, self.field,
                   {((idx % md) * n + idx // md, j): v
                    for (idx, j), v in self.left_coaction.data.items()})

    def __repr__(self):
        label = self.name or "comodule"
        return f"Comodule({label}, {self.side}, dim={self.dim} over {self.coalgebra.name or self.coalgebra.dim})"


def check_comodule(m: Comodule) -> Verdict:
    """Coassociativity square and counit triangle of the stored left
    coaction, over C^cop for a right comodule.  Over F2 the square runs on
    packed coaction blocks, one int XOR per block
    (:func:`_gf2_coassociative`).  Otherwise each law sums on Python ints:
    it scales the matrices it reads (coaction, Delta, epsilon) to integers,
    by one common denominator per matrix, and holds when the scaled
    difference of its two sides is 0 in the field."""
    coassociative = _gf2_coassociative if m.field.characteristic == 2 else _coassociative
    failures = []
    if not coassociative(m):
        failures.append("coassociativity")
    if not counit_holds(m):
        failures.append("counit")
    return Verdict(failures)


def _int_entries(a: Mat) -> tuple[dict, int]:
    """The entries of a as ints over one common scale: a = ints / scale."""
    ints, scale = _ints(a.data, a.field)
    return ints, scale.get(None, 1)


def _vanishes(acc: dict, p: int) -> bool:
    """Every int in acc is 0 in the field of characteristic p."""
    # map(p.__rmod__, ...) is v % p for each v, without a Python-level loop
    return not any(map(p.__rmod__, acc.values())) if p else not any(acc.values())


def _coassociative(m: Comodule) -> bool:
    """(Delta (x) Id) o coaction = (Id (x) coaction) o coaction, column by
    column, on the stored coaction = ints / s.  Both sides are brought
    to the scale s*s*sd, Delta = delta / sd, and subtracted in one dict."""
    c = m.coalgebra
    n, md = c.dim, m.dim
    coact, s = _int_entries(m.left_coaction)
    delta, sd = _int_entries(c.delta)
    coact_cols: dict = {}
    for (idx, k), v in coact.items():
        coact_cols.setdefault(k, {})[idx] = v
    delta_cols: dict = {}
    if m.side == "right":  # Delta^cop, read off Delta's rows
        for (x, k), w in delta.items():
            delta_cols.setdefault(k, {})[(x % n) * n + x // n] = w
    else:
        for (x, k), w in delta.items():
            delta_cols.setdefault(k, {})[x] = w
    p = c.field.characteristic
    for col in coact_cols.values():
        acc: dict = {}
        get = acc.get
        for idx, v in col.items():
            cc, i = divmod(idx, md)
            vs = v * s
            for idx2, w in delta_cols.get(cc, {}).items():
                key = idx2 * md + i
                acc[key] = get(key, 0) + vs * w
            vs, base = v * sd, cc * n * md
            for idx2, w in coact_cols.get(i, {}).items():
                key = base + idx2
                acc[key] = get(key, 0) - vs * w
        if not _vanishes(acc, p):
            return False
    return True


def _gf2_masks(m: Comodule) -> dict:
    """The stored coaction over F2 packed by blocks, as ``{c: {k: mask}}``
    with bit i of mask for each stored entry (c*d + i, k), d = dim M, and no
    empty block.  For a contramodule the mask is theta's column c*d + k as a
    bitmask."""
    d = m.dim
    blocks: dict = {}
    for idx, k in m.left_coaction.data:
        c, i = divmod(idx, d)
        block = blocks.get(c)
        if block is None:
            block = blocks[c] = {}
        block[k] = block.get(k, 0) | 1 << i
    return blocks


def _gf2_coassociative(m: Comodule) -> bool:
    """:func:`_coassociative` over F2 on the packed blocks B_k(c) of
    :func:`_gf2_masks`, regrouped by column.  For each column k both sides
    are held as one int over i per row x = a*n + b of C (x) C: (Delta (x) Id)
    XORs B_k(c) into row x for each entry (x, c) of Delta (of Delta^cop on
    the right), and (Id (x) coaction) puts the XOR of B_j(b) over the bits j
    of B_k(c) at row c*n + b.  The second side's rows c*n + b are distinct
    over the column's blocks, so once the first side is accumulated each is
    popped from it and compared, and the square holds iff they all agree
    and what is left is 0.  The second side depends on B_k(c) only through
    its value, so its image is formed once per value, from the image of
    the value without its lowest bit (:func:`_image`)."""
    n, d = m.coalgebra.dim, m.dim
    cols: list = [[] for _ in range(d)]   # cols[k]: the blocks (c, B_k(c))
    for c, block in _gf2_masks(m).items():
        for k, t in block.items():
            cols[k].append((c, t))
    targets: dict = {}   # c -> the rows x of Delta's column c
    if m.side == "right":
        for x, c in m.coalgebra.delta.data:
            targets.setdefault(c, []).append(x % n * n + x // n)
    else:
        for x, c in m.coalgebra.delta.data:
            targets.setdefault(c, []).append(x)
    images: dict = {0: {}}   # block value t -> _image(images, cols, t)
    for col in cols:
        acc: dict = {}
        get = acc.get
        for c, t in col:
            for x in targets.get(c, ()):
                acc[x] = get(x, 0) ^ t
        pop = acc.pop
        for c, t in col:
            base = c * n
            for b, u in _image(images, cols, t).items():
                if pop(base + b, 0) != u:
                    return False
        if any(acc.values()):
            return False
    return True


def _image(images: dict, cols: list, t: int) -> dict:
    """{b: XOR of B_j(b) over the bits j of t}, for cols[j] the blocks
    (b, B_j(b)) of column j, kept in images for t and for each value met on
    the way: the image of t is that of t without its lowest bit j, XORed
    with the blocks of column j."""
    chain = []
    while t not in images:
        chain.append(t)
        t &= t - 1
    image = images[t]
    for t in reversed(chain):
        image = dict(image)
        get = image.get
        for b, u in cols[(t & -t).bit_length() - 1]:
            image[b] = get(b, 0) ^ u
        images[t] = image
    return image


def counit_holds(m: Comodule) -> bool:
    """The counit law (eps (x) Id) o coaction = Id of the stored coaction,
    which is that of a right comodule too, since C^cop has C's counit."""
    return _counit_law(m.left_coaction, m.dim, m.coalgebra.epsilon, True)


def _counit_law(coact: Mat, md: int, epsilon: Mat, left: bool) -> bool:
    """(eps (x) Id) o coact = Id for coact in left layout, row c*md + i, or
    (Id (x) eps) o coact = Id for coact in right layout, row i*n + c, which
    for Delta itself is the right counit law of C.  Summed on ints: with
    coact = ints / s and eps = ints / se, the sum is compared with the
    identity at scale s*se."""
    coact, s = _int_entries(coact)
    eps, se = _int_entries(epsilon)
    eps = {cc: e for (_, cc), e in eps.items()}
    n = epsilon.cols
    acc: dict = {}
    for (idx, k), v in coact.items():
        e = eps.get(idx // md if left else idx % n)
        if e:
            key = (idx % md if left else idx // n, k)
            acc[key] = acc.get(key, 0) + e * v
    one = s * se
    for k in range(md):
        acc[k, k] = acc.get((k, k), 0) - one
    return _vanishes(acc, epsilon.field.characteristic)


# -- constructions ---------------------------------------------------------


def cofree(c: Coalgebra, d: int, side: str = "left") -> Comodule:
    """Carrier C (x) k^d with coaction Delta (x) Id, or k^d (x) C with
    Id (x) Delta on the right side, whose stored row z*d*n + a*n + y holds
    Delta's entry at row y*n + z, for each a < d."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if side == "left":
        return Comodule(c, "left", c.dim * d, kron_identity(c.delta, d, left=False),
                        name=f"cofree({d})")
    n = c.dim
    entries = [(z * d * n + y, k, v) for (x, k), v in c.delta.data.items() for y, z in [divmod(x, n)]]
    data = {(row + a * n, a * n + k): v for a in range(d) for row, k, v in entries}
    return Comodule(c, "right", d * n, Mat(n * d * n, d * n, c.field, data), name=f"cofree_r({d})")


def comodule_over_self(c: Coalgebra, side: str = "left") -> Comodule:
    """C over itself: Delta, or on the right side the cofree comodule on k,
    whose stored matrix is Delta^cop."""
    if side == "left":
        return Comodule(c, "left", c.dim, c.delta, name=f"{c.name or 'C'}-regular")
    return cofree(c, 1, side).replace(name=f"{c.name or 'C'}-regular")


def direct_sum(m1: Comodule, m2: Comodule) -> Comodule:
    """Block sum of the stored matrices: row c*d + i, column j, d = d1 + d2."""
    if m1.coalgebra is not m2.coalgebra and m1.coalgebra != m2.coalgebra:
        raise ValueError("coalgebra mismatch")
    if m1.side != m2.side:
        raise ValueError("side mismatch")
    d = m1.dim + m2.dim
    data = {}
    for off, m in ((0, m1), (m1.dim, m2)):
        for (idx, j), v in m.left_coaction.data.items():
            c, i = divmod(idx, m.dim)
            data[(c * d + off + i, off + j)] = v
    coact = Mat(m1.coalgebra.dim * d, d, m1.field, data)
    return m1.replace(dim=d, left_coaction=coact, name=f"{m1.name}+{m2.name}")


def dual_comodule(m: Comodule) -> Comodule:
    """Dual of a left comodule is a right comodule on M* (and conversely):
    the stored matrix swaps i and j inside each block c.  With the fixed
    index conventions the double dual is literally the original matrix."""
    md = m.dim
    coact = Mat(m.coalgebra.dim * md, md, m.field,
                {((idx // md) * md + j, idx % md): v
                 for (idx, j), v in m.left_coaction.data.items()})
    other = "right" if m.side == "left" else "left"
    return Comodule(m.coalgebra, other, md, coact, f"{m.name}*")


# -- hom spaces and cotensor --------------------------------------------------


def _hom_system(x: Comodule, y: Comodule) -> Mat:
    """Hom(X, Y) is the kernel of F -> coaction_Y o F - (Id_C (x) F) o coaction_X
    on X* (x) Y, from the stored coactions.  Column v*yd + w holds coaction_Y[r, w] at row
    v*n*yd + r, minus coaction_X[c*xd + v, v'] at row v'*n*yd + c*yd + w, summed on
    ints over the lcm of the two coactions' scales.  Its rows are also the
    relations of Cohom(Y, X) (:func:`contramodule.cohom`)."""
    if x.coalgebra != y.coalgebra:
        raise ValueError("coalgebra mismatch")
    if x.side != y.side:
        raise ValueError("side mismatch")
    n, xd, yd, fld = x.coalgebra.dim, x.dim, y.dim, x.field
    coact_x, sx = _int_entries(x.left_coaction)
    coact_y, sy = _int_entries(y.left_coaction)
    s = lcm(sx, sy)
    ex, ey = s // sx, s // sy
    data = {(v * n * yd + r, v * yd + w): val * ey
            for v in range(xd) for (r, w), val in coact_y.items()}
    get = data.get
    for (idx, vcol), val in coact_x.items():
        row, col, val = vcol * n * yd + idx // xd * yd, idx % xd * yd, val * ex
        for w in range(yd):
            key = row + w, col + w
            data[key] = get(key, 0) - val
    return Mat(xd * n * yd, xd * yd, fld, _scalars(data, fld, s))


def hom_comodules(m: Comodule, n_mod: Comodule) -> Subspace:
    """All comodule maps M -> N as a subspace of M* (x) N."""
    return kernel(_hom_system(m, n_mod))


def is_comodule_map(m: Comodule, n_mod: Comodule, t: Mat) -> bool:
    """Whether coaction_N o t = (Id_C (x) t) o coaction_M."""
    if m.coalgebra != n_mod.coalgebra:
        raise ValueError("coalgebra mismatch")
    if m.side != n_mod.side:
        return False
    return n_mod.left_coaction @ t == push(t, m.coalgebra.dim, True, m.left_coaction)


def cotensor(m: Comodule, n_mod: Comodule) -> Subspace:
    """Cotensor of a right comodule with a left comodule inside M (x) N,
    computed as Hom(M*, N), which flattens over M (x) N with the same index."""
    if m.side != "right" or n_mod.side != "left":
        raise ValueError("cotensor needs (right, left) arguments")
    return hom_comodules(dual_comodule(m), n_mod)


# -- subobjects and quotients ---------------------------------------------------


def comodule_closure(m: Comodule, vectors: list[dict]) -> Subspace:
    """Smallest subcomodule containing the given vectors: the span grows by
    the coaction's slices on its basis, one per coalgebra index, until it
    holds them all.  Each round slices only the span added in the round
    before: by linearity the older span's slices already lie in the span."""
    md = m.dim
    sub = new = Subspace.from_columns(md, m.field, vectors)
    while True:
        slices: dict = {}
        for (idx, t), v in (m.left_coaction @ new.basis).data.items():
            slices.setdefault((t, idx // md), {})[idx % md] = v
        extra = [vec for vec in slices.values() if not sub.contains(vec)]
        if not extra:
            return sub
        new = Subspace.from_columns(md, m.field, extra)
        sub = sub.add(new)


def sub_comodule(m: Comodule, sub: Subspace) -> tuple[Comodule, Mat]:
    """Restrict the coaction to a stable subspace; returns (N, inclusion B).
    With pick the projection onto B's pivot rows, pick @ B = Id, N's coaction
    is (Id_C (x) pick) o coaction o B, certified by the comodule-map
    condition on B."""
    n, basis, one = m.coalgebra.dim, sub.basis, m.field.one()
    pick = Mat(sub.dim, m.dim, m.field, {(t, p): one for t, p in enumerate(sub.pivots)})
    hit = m.left_coaction @ basis
    coact = push(pick, n, True, hit)
    if push(basis, n, True, coact) != hit:
        raise ValueError("subspace is not a subcomodule")
    return m.replace(dim=sub.dim, left_coaction=coact, name=f"{m.name}|sub"), basis


def quotient_comodule(m: Comodule, sub: Subspace) -> tuple[Comodule, Mat]:
    """Quotient by a subcomodule; returns (M/sub, projection)."""
    coeq = quotient_by_image(sub)
    return _descend_coaction(m, coeq, f"{m.name}/sub"), coeq.quotient_map


def _descend_coaction(m: Comodule, coeq: Coequalizer, name: str) -> Comodule:
    """M/sub, named name, for coeq the quotient of M's carrier by a
    subcomodule sub."""
    # (Id (x) q) o coaction kills sub iff the coaction maps sub into C (x) sub
    lifted = push(coeq.quotient_map, m.coalgebra.dim, True, m.left_coaction)
    coact = coeq.descend(lifted, "subspace is not a subcomodule")
    return m.replace(dim=coeq.dim, left_coaction=coact, name=name)


# -- injectivity ----------------------------------------------------------------


def is_injective(m: Comodule) -> tuple[bool, Mat | None]:
    """Split the canonical cofree embedding given by the coaction.

    Returns (flag, retraction): the coaction embeds M into the cofree
    comodule on its own carrier, and M is injective iff that embedding
    admits a comodule retraction, found by one linear solve.
    """
    amb = cofree(m.coalgebra, m.dim, side=m.side)
    # the coaction in its side's layout is the embedding of M into amb's carrier
    retraction = split_solve(_hom_system(amb, m), m.coaction)
    return retraction is not None, retraction
