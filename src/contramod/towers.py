"""Inverse systems of finite-dimensional spaces, Mittag-Leffler detection,
four-term limit exactness, and stabilization tables for Cohom towers.

A system holds stages indexed m0 .. m0+len-1 with transition maps pointing
DOWN the index: transitions[t] maps stage t+1 to stage t.  Detection of the
Mittag-Leffler condition is inherently windowed: image chains that are still
moving at the last stage yield an inconclusive answer, never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .contramodule import Contramodule, is_contra_map
from .linalg import Subspace, image, kernel, rank
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

    def dim(self, idx: int) -> int:
        return _dim_of(self.stages[idx - self.m0])

    def transition(self, idx: int) -> Mat:
        """The map from stage idx down to stage idx-1."""
        return self.transitions[idx - 1 - self.m0]

    def composite(self, lo: int, hi: int) -> Mat:
        """The composed map from stage hi down to stage lo."""
        if hi < lo:
            raise ValueError("hi must be >= lo")
        field = self.transitions[0].field if self.transitions else None
        out = Mat.identity(self.dim(lo), field) if field else None
        if hi == lo:
            return out
        out = self.transition(lo + 1)
        for idx in range(lo + 2, hi + 1):
            out = out @ self.transition(idx)
        return out

    def validate_contra_transitions(self) -> bool:
        """When stages are contramodules, transitions must be contra-homs."""
        for t, tr in enumerate(self.transitions):
            src, tgt = self.stages[t + 1], self.stages[t]
            if isinstance(src, Contramodule) and isinstance(tgt, Contramodule):
                if not is_contra_map(src, tgt, tr):
                    return False
        return True


@dataclass
class MLResult:
    stabilized: bool
    stabilization_index: int  # first stage j with constant images through the window
    image_dims: list


def is_mittag_leffler(sys: InverseSystem, at: int) -> MLResult:
    """Track the chain of images f_{at,j}(A_j) inside stage ``at``.

    Returns the first absolute index j such that the image subspace stays
    constant from j through the end of the window; stabilized is True only
    if that happens strictly before the last stage, i.e. constancy was
    actually observed at least once.
    """
    last = sys.last_index
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
    stab = last
    for pos in range(len(chain) - 1, -1, -1):
        if chain[pos] == chain[-1]:
            stab = at + 1 + pos
        else:
            break
    return MLResult(stab < last, stab, dims)


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
        failures = []
        n = self.stage_count()
        if not (len(self.b) == len(self.c) == len(self.d) == n):
            return ["stage-count-mismatch"]
        for i in range(n):
            al, be, ga = self.alphas[i], self.betas[i], self.gammas[i]
            if rank(al) != _dim_of(self.a.stages[i]):
                failures.append(f"stage{i}:alpha-not-injective")
            if image(al) != kernel(be):
                failures.append(f"stage{i}:not-exact-at-B")
            if image(be) != kernel(ga):
                failures.append(f"stage{i}:not-exact-at-C")
            if rank(ga) != _dim_of(self.d.stages[i]):
                failures.append(f"stage{i}:gamma-not-surjective")
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


def _quotient_system(four: FourTermSystem) -> InverseSystem:
    """The system B_i / Im(A_i), with induced transitions."""
    from .linalg import quotient_by_image

    stages = []
    transitions = []
    quots = []
    for i in range(four.stage_count()):
        coeq = quotient_by_image(image(four.alphas[i]))
        quots.append(coeq)
        stages.append(coeq.dim)
    for i in range(four.stage_count() - 1):
        induced = quots[i].quotient_map @ four.b.transitions[i] @ quots[i + 1].section
        transitions.append(induced)
    return InverseSystem(stages, transitions, m0=four.a.m0)


def limit_four_term(four: FourTermSystem) -> LimitVerdict:
    """Check the two Mittag-Leffler hypotheses in the window, then verify
    exactness of the stable-image surrogate of the limit sequence.

    A hypothesis that cannot be confirmed inside the window yields
    "inconclusive" rather than a verdict either way.
    """
    failures = four.validate()
    if failures:
        raise ValueError(f"invalid four-term input: {failures}")
    base = four.a.m0
    ml_a = is_mittag_leffler(four.a, base)
    quot = _quotient_system(four)
    ml_q = is_mittag_leffler(quot, base)
    detail = {
        "ml_A": ml_a,
        "ml_B_mod_A": ml_q,
    }
    if not (ml_a.stabilized and ml_q.stabilized):
        return LimitVerdict("inconclusive", detail)
    # stable images of all four systems at the base stage must also have
    # settled inside the window for the surrogate to be trustworthy
    surrogate_systems = {"A": four.a, "B": four.b, "C": four.c, "D": four.d}
    stables = {}
    for label, sys in surrogate_systems.items():
        ml = is_mittag_leffler(sys, base)
        if not ml.stabilized:
            detail[f"ml_{label}"] = ml
            return LimitVerdict("inconclusive", detail)
        stables[label] = image(sys.composite(base, sys.last_index))
    # restrict the stage maps to the stable images and test exactness
    i0 = 0
    maps = {"alpha": four.alphas[i0], "beta": four.betas[i0], "gamma": four.gammas[i0]}
    pairs = [("alpha", "A", "B"), ("beta", "B", "C"), ("gamma", "C", "D")]
    restricted = {}
    for name, src, tgt in pairs:
        s_src, s_tgt = stables[src], stables[tgt]
        hit = (maps[name] @ s_src.basis).columns()
        coords = [s_tgt.coords(hit.get(t, {})) for t in range(s_src.dim)]
        if None in coords:
            return LimitVerdict("fails", {**detail, "reason": f"{name} leaves stable image"})
        restricted[name] = Mat(s_tgt.dim, s_src.dim, s_tgt.field,
                               {(s, t): v for t, col in enumerate(coords) for s, v in col.items()})
    al, be, ga = restricted["alpha"], restricted["beta"], restricted["gamma"]
    dims = {k: s.dim for k, s in stables.items()}
    exact = (
        rank(al) == dims["A"]
        and image(al) == kernel(be)
        and image(be) == kernel(ga)
        and rank(ga) == dims["D"]
    )
    detail["stable_dims"] = dims
    return LimitVerdict("exact" if exact else "fails", detail)


@dataclass
class TowerRow:
    m: int
    dim_cohom: int


@dataclass
class TowerReport:
    lam: int
    p: int
    stages: list          # list[TowerRow]
    stabilized_at: int | None
    f_v: int
    match: bool
    stable_from: int      # first stage where the weight bound holds

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "p": self.p,
            "stages": [{"m": r.m, "dim_cohom": r.dim_cohom} for r in self.stages],
            "stabilized_at": self.stabilized_at,
            "f_V": self.f_v,
            "match": self.match,
        }


def cohom_tower(v, tower: InverseSystem, lam: int, p: int = 2) -> TowerReport:
    """Dimension table of Cohom over the stage kernels against the character
    multiplicity oracle.

    ``v`` is a rational module from the SL2 catalog and ``tower`` the output
    of the tower builder; stage m is computed over the m-th Frobenius-kernel
    coalgebra after restricting both sides and converting the tower stage to
    a contramodule.
    """
    from . import sl2  # local import: sl2 builds on this module's InverseSystem
    from .comodule import dual_comodule
    from .contramodule import cohom, contra_from_comodule

    rows = []
    for offset, stage in enumerate(tower.stages):
        m = tower.m0 + offset
        v_m = dual_comodule(sl2.restrict_to_kernel(v, m))
        p_m = dual_comodule(sl2.restrict_to_kernel(stage, m))
        dim = cohom(v_m, contra_from_comodule(p_m)).dim
        rows.append(TowerRow(m, dim))
    f_v = sl2.f_multiplicity(lam, v)
    max_wt = max((abs(w) for w in v.character().keys()), default=0)
    stable_from = tower.m0
    while p ** (stable_from - 1) <= max_wt:
        stable_from += 1
    stabilized_at = None
    for row in reversed(rows):
        if row.dim_cohom == rows[-1].dim_cohom:
            stabilized_at = row.m
        else:
            break
    in_range = [r for r in rows if r.m >= stable_from]
    match = bool(in_range) and all(r.dim_cohom == f_v for r in in_range)
    return TowerReport(lam, p, rows, stabilized_at, f_v, match, stable_from)
