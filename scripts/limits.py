"""The inverse-limit layer of the survey script ``limit_survey.py``: inverse
systems of finite-dimensional spaces, Mittag-Leffler detection, and
four-term limit exactness.  The engine checks its towers stage by stage
(:func:`contramod.towers.cohom_tower`), so nothing in the package runs this
layer; the survey script and the tests do.

A system holds stages indexed m0 .. m0+len-1 with transition maps pointing
DOWN the index: transitions[t] maps stage t+1 to stage t.  Detection of the
Mittag-Leffler condition is inherently windowed: image chains that are still
moving at the last stage yield an inconclusive answer, never a guess.

Exactness, of each stage of a four-term system and of the sequence of stable
images that stands in for its limit, is decided by the one shared test
:func:`contramod.linalg.exactness_failures`; the stable images are the last
images that :func:`is_mittag_leffler` builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from contramod.linalg import Subspace, exactness_failures, image
from contramod.matrix import Mat
from contramod.towers import _settled_from


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
        systems_and_maps = (self.b, self.c, self.d, self.alphas, self.betas, self.gammas)
        if any(len(each) != n for each in systems_and_maps):
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
