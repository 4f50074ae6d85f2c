"""Restriction and induction of contramodules along a surjective coalgebra
map, the explicit adjunction isomorphism, and exactness probes.

Induction is the Cohom of the target-side comodule structure on the source
coalgebra: the quotient contramodule of the free contramodule on the carrier
of W by Cohom's relations.

``adjunction_check`` certifies both round trips of the adjunction
isomorphism on full bases of the two hom spaces as stacked products: each
basis is stacked into one matrix, so gamma, gamma_inv and the contra-map
test are one product each for the whole basis, and the per-map outcomes are
read off the products in the order a loop over the basis maps would meet
them.

Whether a sequence is exact is decided in one place,
:func:`linalg.exactness_failures`: ``ShortExactSeq.validate`` names its
failing positions, and ``exactness_probe`` reports them on the induced
sequence as an ``ExactnessVerdict``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .coalgebra import CoalgebraMorphism, Verdict
from .comodule import Comodule, _descend_coaction, _hom_system
from .contramodule import Contramodule, check_contramodule, cohom, free_contramodule, is_contra_map
from .linalg import Coequalizer, exactness_failures, kernel, rank
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


def _unit(rho: CoalgebraMorphism, res: InductionResult) -> Mat:
    """The unit W -> Ind(W)|_D that gamma precomposes: Ind(W)'s free
    presentation after the counit-induced splitting W -> Hom(C, W)."""
    presentation = res.coeq.quotient_map
    w_dim = presentation.cols // rho.source.dim
    return presentation @ kron_identity(rho.source.epsilon.transpose(), w_dim, left=False)


def gamma(rho: CoalgebraMorphism, res: InductionResult, phi: Mat) -> Mat:
    """Turn a contra-hom Ind(W) -> V into W -> V|_D by precomposing with the
    counit-induced splitting of the free presentation."""
    return phi @ _unit(rho, res)


def _lift(v: Contramodule, psis: Mat, count: int) -> Mat:
    """The maps Hom(C, W) -> V that extend count maps psi_j: W -> V|_D
    through the contra-action of V, stacked as the psi_j are (map j is rows
    j*dim V ..): e_c* (x) w_k goes to row j*dim V + i, read off row
    c*dim V + i of coaction @ psi_j.  One product, with the psi_j side by
    side."""
    bv, wd, f = v.dim, psis.cols, v.field
    if psis.rows != count * bv:
        raise ValueError(f"cannot extend {psis.rows}x{wd} maps into V of dimension {bv}")
    side = Mat(bv, count * wd, f, {(r % bv, r // bv * wd + x): val for (r, x), val in psis.data.items()})
    return Mat(count * bv, v.coalgebra.dim * wd, f,
               {(col // wd * bv + idx % bv, idx // bv * wd + col % wd): val
                for (idx, col), val in (v.left_coaction @ side).data.items()})


_NOT_KILLED = "extension does not kill the induction relations"


def gamma_inv(rho: CoalgebraMorphism, res: InductionResult, v: Contramodule, psi: Mat) -> Mat:
    """Inverse direction: extend W -> V|_D to Ind(W) -> V via the
    contra-action of V: e_j* (x) w_k goes to row j*dim V + i of coaction @ psi."""
    return res.coeq.descend(_lift(v, psi, 1), _NOT_KILLED)


@dataclass
class AdjunctionReport:
    lhs_dim: int
    rhs_dim: int
    roundtrip_ok: bool

    @property
    def ok(self) -> bool:
        return self.lhs_dim == self.rhs_dim and self.roundtrip_ok


def _stacked(basis: Mat, ny: int, nx: int) -> Mat:
    """The maps k^nx -> k^ny of a hom basis, flat index x*ny + y in column j
    (:func:`matrix.map_of_vec`), stacked: map j is rows j*ny .. j*ny + ny - 1."""
    return Mat(basis.cols * ny, nx, basis.field,
               {(j * ny + idx % ny, idx // ny): val for (idx, j), val in basis.data.items()})


def _differing(a: Mat, b: Mat, size: int) -> set:
    """The maps, blocks of size rows, where two stacks differ."""
    ad, bd = a.data, b.data
    rows = {key[0] for key, val in ad.items() if bd.get(key) != val}
    rows.update(key[0] for key in bd.keys() - ad.keys())
    return {r // size for r in rows}


def _not_contra(hom_sys: Mat, stack: Mat, ny: int, count: int) -> set:
    """The maps of a stack of count maps that are not contra-maps: one flat
    column each (the inverse of :func:`_stacked`), outside the kernel of
    the hom space's system."""
    flat = Mat(stack.cols * ny, count, stack.field,
               {(x * ny + r % ny, r // ny): val for (r, x), val in stack.data.items()})
    return {j for _, j in (hom_sys @ flat).data}


def _gamma_inv_all(res: InductionResult, v: Contramodule, psis: Mat, count: int) -> tuple[Mat, int]:
    """gamma_inv of a stack of count maps: the stacked extensions read off
    the section, and the index of the first map whose extension does not
    kill the induction relations (count when every one does).  Only the
    extensions before that index descend."""
    lifted = _lift(v, psis, count)
    hit = lifted @ res.coeq.image_subspace.basis
    return res.coeq.on_section(lifted), min((r // v.dim for r, _ in hit.data), default=count)


def _first_failure(count: int, tests: list) -> bool:
    """Walk the stacked outcomes in the per-map loop's order.  tests lists,
    in the order the loop runs them on one map, (failing maps, raises).  The
    first map that fails decides, by the first of its tests that fails:
    ValueError for a lift that does not descend, else False.  True when no
    map fails."""
    first, _, raises = min((min(bad, default=count), pos, raises)
                           for pos, (bad, raises) in enumerate(tests))
    if first == count:
        return True
    if raises:
        raise ValueError(_NOT_KILLED)
    return False


def adjunction_check(rho: CoalgebraMorphism, w: Contramodule, v: Contramodule) -> AdjunctionReport:
    """Dimension equality and both round trips on full bases of the two hom
    spaces related by induction/restriction.  Each round trip runs on the
    whole basis at once: the basis maps stacked into one matrix, gamma one
    product with the unit, gamma_inv one product with V's coaction read off
    the section, and the contra-map test one product with the hom space's
    system.  The verdict is the per-map loop's: the first basis map that
    fails decides it, False, or ValueError when its extension does not
    descend."""
    res = induce(rho, w)
    ind, v_res = res.induced, restrict(rho, v)
    lhs_sys, rhs_sys = _hom_system(ind, v), _hom_system(w, v_res)
    lhs, rhs = kernel(lhs_sys), kernel(rhs_sys)
    unit, vd, wd = _unit(rho, res), v.dim, w.dim

    def there_and_back() -> bool:
        # phi -> psi = gamma(phi): a contra-map, and gamma_inv(psi) = phi
        k = lhs.dim
        phis = _stacked(lhs.basis, vd, ind.dim)
        psis = phis @ unit
        back, stop = _gamma_inv_all(res, v, psis, k)
        return _first_failure(k, [(_not_contra(rhs_sys, psis, vd, k), False),
                                  ({stop}, True), (_differing(back, phis, vd), False)])

    def back_and_there() -> bool:
        # psi -> phi = gamma_inv(psi), which descends, a contra-map, and gamma(phi) = psi
        k = rhs.dim
        psis = _stacked(rhs.basis, vd, wd)
        phis, stop = _gamma_inv_all(res, v, psis, k)
        return _first_failure(k, [({stop}, True), (_not_contra(lhs_sys, phis, vd, k), False),
                                  (_differing(phis @ unit, psis, vd), False)])

    return AdjunctionReport(lhs.dim, rhs.dim, there_and_back() and back_and_there())


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


@dataclass
class ExactnessVerdict:
    exact: bool
    failures: list   # subset of {"left", "middle", "right"}
    dims: tuple      # dimensions of the three terms, left to right

    @classmethod
    def of(cls, first: Mat, second: Mat) -> "ExactnessVerdict":
        """Where 0 -> X -> Y -> Z -> 0, with maps first and second, fails."""
        failures = [("left", "middle", "right")[i] for i in exactness_failures([first, second])]
        return cls(not failures, failures, (first.cols, first.rows, second.rows))


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
