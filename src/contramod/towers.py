"""Inverse systems of finite-dimensional spaces, Mittag-Leffler detection,
four-term limit exactness, and stabilization tables for Cohom towers.

:func:`cohom_tower` is where an SL2 tower is admitted: it takes a battery of
module expressions and refuses, before it tensors anything, a tower that is
too large or a module that no stage of the tower would compare.

A system holds stages indexed m0 .. m0+len-1 with transition maps pointing
DOWN the index: transitions[t] maps stage t+1 to stage t.  Detection of the
Mittag-Leffler condition is inherently windowed: image chains that are still
moving at the last stage yield an inconclusive answer, never a guess.

Exactness, of each stage of a four-term system and of the sequence of stable
images that stands in for its limit, is decided by the one shared test
:func:`linalg.exactness_failures`; the stable images are the last images
that :func:`is_mittag_leffler` builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .linalg import Subspace, exactness_failures, image
from .matrix import Mat


def _dim_of(obj) -> int:
    if isinstance(obj, int):
        return obj
    return obj.dim


@dataclass
class InverseSystem:
    """Stages may be plain dimensions (ints) or structured objects exposing
    ``dim`` (contramodules, comodules); transitions are matrices."""

    stages: list
    transitions: list  # transitions[t]: stage t+1 -> stage t
    m0: int = 0

    def __post_init__(self):
        if len(self.transitions) != max(len(self.stages) - 1, 0):
            raise ValueError("need exactly one transition per adjacent pair")
        for t, tr in enumerate(self.transitions):
            if tr.rows != _dim_of(self.stages[t]) or tr.cols != _dim_of(self.stages[t + 1]):
                raise ValueError(f"transition {t} has wrong shape")

    def __len__(self):
        return len(self.stages)

    @property
    def last_index(self) -> int:
        return self.m0 + len(self.stages) - 1

    def transition(self, idx: int) -> Mat:
        """The map from stage idx down to stage idx-1, for m0 < idx <= last_index."""
        if not self.m0 < idx <= self.last_index:
            raise ValueError(f"no transition from stage {idx}: stages run from {self.m0} to {self.last_index}")
        return self.transitions[idx - 1 - self.m0]


def _settled_from(values: list) -> int:
    """First position from which every value equals the last one."""
    pos = len(values) - 1
    while pos > 0 and values[pos - 1] == values[-1]:
        pos -= 1
    return pos


@dataclass
class MLResult:
    stabilized: bool
    stabilization_index: int  # first stage j with constant images through the window
    image_dims: list
    stable_image: Subspace  # image of the last stage in stage ``at``


def is_mittag_leffler(sys: InverseSystem, at: int) -> MLResult:
    """Track the chain of images f_{at,j}(A_j) inside stage ``at``.

    Returns the first absolute index j such that the image subspace stays
    constant from j through the end of the window; stabilized is True only
    if that happens strictly before the last stage, i.e. constancy was
    actually observed at least once.  The last image of the chain comes back
    as ``stable_image``.
    """
    last = sys.last_index
    if at < sys.m0:
        raise ValueError(f"base index {at} is below the first stage {sys.m0}")
    if last - at < 2:
        raise ValueError("need at least two stages beyond the base index")
    chain: list[Subspace] = []
    dims = []
    out = None
    for j in range(at + 1, last + 1):
        out = sys.transition(j) if out is None else out @ sys.transition(j)
        img = image(out)
        if chain and img.dim > chain[-1].dim:
            raise AssertionError("image chain must be non-increasing")
        chain.append(img)
        dims.append(img.dim)
    stab = at + 1 + _settled_from(chain)
    return MLResult(stab < last, stab, dims, chain[-1])


@dataclass
class FourTermSystem:
    """Per-stage exact sequences 0 -> A -> B -> C -> D -> 0 linked by
    transitions commuting with the three structure maps."""

    a: InverseSystem
    b: InverseSystem
    c: InverseSystem
    d: InverseSystem
    alphas: list  # A_i -> B_i
    betas: list   # B_i -> C_i
    gammas: list  # C_i -> D_i

    def stage_count(self) -> int:
        return len(self.a)

    def validate(self) -> list:
        n = self.stage_count()
        if not (len(self.b) == len(self.c) == len(self.d) == n):
            return ["stage-count-mismatch"]
        names = ("alpha-not-injective", "not-exact-at-B", "not-exact-at-C", "gamma-not-surjective")
        failures = [
            f"stage{i}:{names[pos]}"
            for i in range(n)
            for pos in exactness_failures([self.alphas[i], self.betas[i], self.gammas[i]])
        ]
        for i in range(n - 1):
            if self.alphas[i] @ self.a.transitions[i] != self.b.transitions[i] @ self.alphas[i + 1]:
                failures.append(f"stage{i}:alpha-square")
            if self.betas[i] @ self.b.transitions[i] != self.c.transitions[i] @ self.betas[i + 1]:
                failures.append(f"stage{i}:beta-square")
            if self.gammas[i] @ self.c.transitions[i] != self.d.transitions[i] @ self.gammas[i + 1]:
                failures.append(f"stage{i}:gamma-square")
        return failures


@dataclass
class LimitVerdict:
    status: str  # "exact" | "fails" | "inconclusive"
    detail: dict = dc_field(default_factory=dict)


def limit_four_term(four: FourTermSystem) -> LimitVerdict:
    """Check that the four systems are Mittag-Leffler in the window, then
    verify exactness of the stable-image surrogate of the limit sequence.

    The quotient system B / Im A needs no check of its own: its image chain
    is the image of B's under the quotient map, so it settles no later.  A
    hypothesis that cannot be confirmed inside the window yields
    "inconclusive" rather than a verdict either way.
    """
    failures = four.validate()
    if failures:
        raise ValueError(f"invalid four-term input: {failures}")
    detail, stables = {}, {}
    for label, sys in (("A", four.a), ("B", four.b), ("C", four.c), ("D", four.d)):
        ml = detail[f"ml_{label}"] = is_mittag_leffler(sys, four.a.m0)
        if not ml.stabilized:
            return LimitVerdict("inconclusive", detail)
        stables[label] = ml.stable_image
    # restrict the base-stage maps to the stable images and test exactness
    restricted = []
    for stage_map, src, tgt in zip((four.alphas[0], four.betas[0], four.gammas[0]), "ABC", "BCD"):
        s_src, s_tgt = stables[src], stables[tgt]
        hit = (stage_map @ s_src.basis).columns()
        # commuting squares send each stable image into the next: no coords are None
        coords = [s_tgt.coords(hit.get(t, {})) for t in range(s_src.dim)]
        restricted.append(Mat(s_tgt.dim, s_src.dim, s_tgt.field,
                              {(s, t): v for t, col in enumerate(coords) for s, v in col.items()}))
    detail["stable_dims"] = {k: s.dim for k, s in stables.items()}
    return LimitVerdict("fails" if exactness_failures(restricted) else "exact", detail)


@dataclass
class TowerRow:
    m: int
    dim_cohom: int


@dataclass
class TowerReport:
    module: str           # the battery expression
    lam: int
    p: int
    stages: list          # list[TowerRow]
    stabilized_at: int | None
    f_v: int
    match: bool
    stable_from: int      # first stage where the weight bound holds

    def to_json(self) -> dict:
        return {
            "module": self.module,
            "lambda": self.lam,
            "p": self.p,
            "stages": [{"m": r.m, "dim_cohom": r.dim_cohom} for r in self.stages],
            "stabilized_at": self.stabilized_at,
            "f_V": self.f_v,
            "match": self.match,
        }


def cohom_tower(battery: list, lam: int, p: int = 2, m_max: int = 3) -> list[TowerReport]:
    """Dimension tables of Cohom over the stage kernels against the character
    multiplicity oracle, one ``TowerReport`` per battery expression ("L1*L1").

    The tower of lam runs from its first stage m0 to ``m_max``.  Before any
    module is tensored, ValueError refuses, in this order, a k[G_m_max] or a
    module times the last stage above ``io.MAX_DIM``, and a module whose
    weight bound p^(m-1) > top weight first holds past ``m_max``, so that no
    stage of it would be compared.  Each stage is then built once in its
    kernel, as the F2 theta masks of its dual (:func:`sl2.kernel_stage_masks`),
    and each module restricted once per stage and paired with them by
    :func:`contramodule.gf2_cohom_dim`: each dimension is dim V * db minus
    the rank of Cohom's relations, with no quotient built.
    """
    from . import contramodule, sl2  # local import: sl2 builds on this module's InverseSystem
    from .comodule import dual_comodule
    from .io import MAX_DIM

    # the bounds on p and m_max come first so the power is never large
    if p > 1 and m_max > 0 and (max(p, m_max) > MAX_DIM or p ** (3 * m_max) > MAX_DIM):
        raise ValueError(f"tower: k[G_{m_max}] has dimension {p}^{3 * m_max}, above {MAX_DIM}")
    # the largest Cohom coequalizer has dim V * dim P(lam, m_max) rows
    top = sl2.stage_dim(lam, p, m_max)
    for expr in battery:
        if sl2.battery_dim(p, expr) * top > MAX_DIM:
            raise ValueError(f"tower: {expr} times the last stage P({lam},{m_max}), of dimension "
                             f"{top}, has dimension above {MAX_DIM}")
    m0 = sl2.tower_base(lam, p, m_max)
    stable_froms = []
    for expr in battery:
        m, top_weight = m0, sl2.battery_top_weight(p, expr)
        while p ** (m - 1) <= top_weight:
            m += 1
        if m > m_max:
            raise ValueError(f"{expr}: the weight bound first holds at stage {m}, "
                             f"beyond the last stage {m_max}")
        stable_froms.append(m)
    modules = [sl2.battery_module(p, expr) for expr in battery]
    rows = [[] for _ in modules]
    for m in range(m0, m_max + 1):
        db, ts = sl2.kernel_stage_masks(lam, m)
        for v, v_rows in zip(modules, rows):
            v_m = dual_comodule(sl2.restrict_to_kernel(v, m))
            v_rows.append(TowerRow(m, contramodule.gf2_cohom_dim(v_m, db, ts)))
    reports = []
    for expr, v, v_rows, stable_from in zip(battery, modules, rows, stable_froms):
        f_v = sl2.f_multiplicity(lam, v)
        # stabilization counts only when it was observed: before the last stage
        pos = _settled_from([r.dim_cohom for r in v_rows])
        stabilized_at = v_rows[pos].m if pos < len(v_rows) - 1 else None
        match = all(r.dim_cohom == f_v for r in v_rows if r.m >= stable_from)
        reports.append(TowerReport(expr, lam, p, v_rows, stabilized_at, f_v, match, stable_from))
    return reports
