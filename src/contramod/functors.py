"""Restriction and induction of contramodules along a surjective coalgebra
map, the explicit adjunction isomorphism, and exactness probes.

Induction is the Cohom of the target-side comodule structure on the source
coalgebra: the quotient contramodule of the free contramodule on the carrier
of W by Cohom's relations.

Whether a sequence is exact is decided in one place,
:func:`linalg.exactness_failures`: ``ShortExactSeq.validate`` names its
failing positions, and ``exactness_probe`` reports them on the induced
sequence as the ``ExactnessVerdict`` that the Cohom probe also returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .coalgebra import CoalgebraMorphism, Verdict
from .comodule import Comodule, _descend_coaction
from .contramodule import (
    Contramodule, ExactnessVerdict, check_contramodule, cohom, free_contramodule, hom_contra,
    hom_contra_basis_maps, is_contra_map,
)
from .linalg import Coequalizer, exactness_failures, rank
from .matrix import Mat, kron_identity, push


def _require_surjective(rho: CoalgebraMorphism):
    if not rho.surjective or rank(rho.matrix) != rho.target.dim:
        raise ValueError("induction is only defined along surjective coalgebra maps")


def restrict(rho: CoalgebraMorphism, v: Contramodule) -> Contramodule:
    """View a C-contramodule as a D-contramodule through rho*: D* -> C*; its
    coaction is (rho (x) Id) o coaction."""
    if v.coalgebra != rho.source:
        raise ValueError("contramodule does not live over the source coalgebra")
    _require_surjective(rho)
    coact = push(rho.matrix, v.dim, False, v.left_coaction)
    return Contramodule(rho.target, v.dim, coact, name=f"{v.name}|res")


def comodule_along(rho: CoalgebraMorphism) -> Comodule:
    """The source coalgebra as a left comodule over the target, via
    (rho (x) id) o Delta."""
    _require_surjective(rho)
    c = rho.source
    return Comodule(rho.target, "left", c.dim, push(rho.matrix, c.dim, False, c.delta),
                    name=f"{c.name or 'C'}-over-{rho.target.name or 'D'}")


@dataclass
class InductionResult:
    induced: Contramodule
    coeq: Coequalizer     # Hom(C, W) = the free contramodule on W's carrier, mod Im(f - g)

    @property
    def dim(self) -> int:
        return self.induced.dim


def induce(rho: CoalgebraMorphism, w: Contramodule) -> InductionResult:
    """Induction along a surjective coalgebra map, with its free presentation:
    Cohom_D(C, W), whose quotient of Hom(C, W) also carries the free
    contramodule on W's carrier down to the induced contramodule."""
    c_over_d = comodule_along(rho)
    if w.coalgebra != rho.target:
        raise ValueError("contramodule does not live over the target coalgebra")
    coeq = cohom(c_over_d, w)
    free = free_contramodule(rho.source, w.dim)
    induced = replace(_descend_coaction(free, coeq), name=f"ind({w.name})")
    verdict = check_contramodule(induced)
    if not verdict.ok:
        raise AssertionError(f"induced object fails axioms: {verdict.failures}")
    return InductionResult(induced, coeq)


def induce_map(
    rho: CoalgebraMorphism,
    res_src: InductionResult,
    res_tgt: InductionResult,
    h: Mat,
) -> Mat:
    """Functorial action on a contra-homomorphism h: W -> W'."""
    lifted = res_tgt.coeq.quotient_map @ kron_identity(h, rho.source.dim, left=True)
    return res_src.coeq.descend(lifted, "map does not descend: is h a contra-homomorphism?")


# -- the adjunction ---------------------------------------------------------------


def gamma(rho: CoalgebraMorphism, res: InductionResult, phi: Mat) -> Mat:
    """Turn a contra-hom Ind(W) -> V into W -> V|_D by precomposing with the
    counit-induced splitting of the free presentation."""
    presentation = res.coeq.quotient_map
    w_dim = presentation.cols // rho.source.dim
    eps_sec = kron_identity(rho.source.epsilon.transpose(), w_dim, left=False)
    return phi @ presentation @ eps_sec


def gamma_inv(rho: CoalgebraMorphism, res: InductionResult, v: Contramodule, psi: Mat) -> Mat:
    """Inverse direction: extend W -> V|_D to Ind(W) -> V via the
    contra-action of V: e_j* (x) w_k goes to row j*dim V + i of coaction @ psi."""
    bv, wd, composed = v.dim, psi.cols, (v.left_coaction @ psi).data.items()
    lifted = Mat(bv, rho.source.dim * wd, v.field,
                 {(idx % bv, idx // bv * wd + k): val for (idx, k), val in composed})
    return res.coeq.descend(lifted, "extension does not kill the induction relations")


@dataclass
class AdjunctionReport:
    lhs_dim: int
    rhs_dim: int
    roundtrip_ok: bool

    @property
    def ok(self) -> bool:
        return self.lhs_dim == self.rhs_dim and self.roundtrip_ok


def adjunction_check(rho: CoalgebraMorphism, w: Contramodule, v: Contramodule) -> AdjunctionReport:
    """Dimension equality and both round trips on full bases of the two hom
    spaces related by induction/restriction."""
    res = induce(rho, w)
    v_res = restrict(rho, v)
    lhs = hom_contra(res.induced, v)
    rhs = hom_contra(w, v_res)
    ok = True
    for phi in hom_contra_basis_maps(res.induced, v, lhs):
        psi = gamma(rho, res, phi)
        if not is_contra_map(w, v_res, psi):
            ok = False
            break
        if gamma_inv(rho, res, v, psi) != phi:
            ok = False
            break
    if ok:
        for psi in hom_contra_basis_maps(w, v_res, rhs):
            phi = gamma_inv(rho, res, v, psi)
            if not is_contra_map(res.induced, v, phi):
                ok = False
                break
            if gamma(rho, res, phi) != psi:
                ok = False
                break
    return AdjunctionReport(lhs.dim, rhs.dim, ok)


# -- short exact sequences and exactness probes --------------------------------------


@dataclass
class ShortExactSeq:
    sub: Contramodule
    mid: Contramodule
    quot: Contramodule
    incl: Mat
    proj: Mat

    def validate(self) -> Verdict:
        names = ("inclusion-not-injective", "not-exact-at-mid", "projection-not-surjective")
        failures = [names[i] for i in exactness_failures([self.incl, self.proj])]
        if not is_contra_map(self.sub, self.mid, self.incl):
            failures.append("inclusion-not-contra-map")
        if not is_contra_map(self.mid, self.quot, self.proj):
            failures.append("projection-not-contra-map")
        return Verdict(failures)


def exactness_probe(rho: CoalgebraMorphism, ses: ShortExactSeq) -> ExactnessVerdict:
    """Induce a short exact sequence and report where exactness fails."""
    v = ses.validate()
    if not v.ok:
        raise ValueError(f"input sequence is not a valid SES: {v.failures}")
    res_a = induce(rho, ses.sub)
    res_b = induce(rho, ses.mid)
    res_c = induce(rho, ses.quot)
    return ExactnessVerdict.of(induce_map(rho, res_a, res_b, ses.incl),
                               induce_map(rho, res_b, res_c, ses.proj))
