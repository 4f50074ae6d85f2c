"""Restriction and induction of contramodules along a surjective coalgebra
map, the explicit adjunction isomorphism, and exactness probes.

Induction is the Cohom of the target-side comodule structure on the source
coalgebra: the quotient contramodule of the free contramodule on the carrier
of W by Cohom's relations.  ``Induction(rho)`` is the one way to induce and
restrict along a surjection: it checks rho and builds C as a D-comodule
once, for every contramodule induced along it.  The maps built from an
induction result, ``induce_map``, ``gamma`` and ``gamma_inv``, read C off
the induced contramodule, so no second rho can disagree with it.

``adjunction_check`` certifies the adjunction isomorphism in the flat
coordinates of hom spaces (:func:`matrix.map_of_vec`), where gamma and
gamma_inv are linear maps, so each test of a round trip is one product
with a kernel basis.  The first round trip runs on a full basis of
Hom(Ind W, V).  Once it passes, equal dimensions make gamma a bijection
onto Hom(W, V|_D), which implies the second round trip; so Hom(W, V|_D)
gets a basis, and the second trip, only when the dimensions differ.

Whether a sequence is exact is decided in one place,
:func:`linalg.exactness_failures`: ``ShortExactSeq.validate`` names its
failing positions, and ``exactness_probe`` reports them on the induced
sequence as an ``ExactnessVerdict``.
"""

from __future__ import annotations

from .coalgebra import CoalgebraMorphism, Verdict
from .comodule import Comodule, _descend_coaction, _hom_system, is_comodule_map
from .contramodule import Contramodule, check_contramodule, cohom, free_contramodule
from .fields import Record
from .linalg import Coequalizer, exactness_failures, kernel, rank
from .matrix import Mat, kron_identity, map_of_vec, push


class InductionResult(Record):
    def __init__(self, induced: Contramodule, coeq: Coequalizer):
        self.induced = induced
        self.coeq = coeq     # Hom(C, W) = the free contramodule on W's carrier, mod Im(f - g)

    @property
    def dim(self) -> int:
        return self.induced.dim


class Induction:
    """Induction and restriction along one surjective coalgebra map rho: C -> D,
    built once per rho: surjectivity is checked once, and ``comodule`` holds C
    as a left D-comodule, via (rho (x) id) o Delta, for every induction."""

    def __init__(self, rho: CoalgebraMorphism):
        if not rho.surjective or rank(rho.matrix) != rho.target.dim:
            raise ValueError("induction is only defined along surjective coalgebra maps")
        c = rho.source
        self.rho = rho
        self.comodule = Comodule(rho.target, "left", c.dim, push(rho.matrix, c.dim, False, c.delta),
                                 name=f"{c.name or 'C'}-over-{rho.target.name or 'D'}")

    def restrict(self, v: Contramodule) -> Contramodule:
        """View a C-contramodule as a D-contramodule through rho*: D* -> C*;
        its coaction is (rho (x) Id) o coaction."""
        if v.coalgebra != self.rho.source:
            raise ValueError("contramodule does not live over the source coalgebra")
        coact = push(self.rho.matrix, v.dim, False, v.left_coaction)
        return Contramodule(self.rho.target, v.dim, coact, name=f"{v.name}|res")

    def induce(self, w: Contramodule) -> InductionResult:
        """Cohom_D(C, W), with its free presentation: the quotient of Hom(C, W)
        also carries the free contramodule on W's carrier down to the induced
        contramodule, whose axioms are certified."""
        if w.coalgebra != self.rho.target:
            raise ValueError("contramodule does not live over the target coalgebra")
        coeq = cohom(self.comodule, w)
        induced = _descend_coaction(free_contramodule(self.rho.source, w.dim), coeq, f"ind({w.name})")
        verdict = check_contramodule(induced)
        if not verdict.ok:
            raise AssertionError(f"induced object fails axioms: {verdict.failures}")
        return InductionResult(induced, coeq)

    def exactness_probe(self, ses: ShortExactSeq) -> ExactnessVerdict:
        """Induce a short exact sequence and report where exactness fails."""
        v = ses.validate()
        if not v.ok:
            raise ValueError(f"input sequence is not a valid SES: {v.failures}")
        res_a, res_b, res_c = self.induce(ses.sub), self.induce(ses.mid), self.induce(ses.quot)
        return ExactnessVerdict.of(induce_map(res_a, res_b, ses.incl), induce_map(res_b, res_c, ses.proj))


def induce_map(res_src: InductionResult, res_tgt: InductionResult, h: Mat) -> Mat:
    """Functorial action on a contra-homomorphism h: W -> W'."""
    lifted = res_tgt.coeq.quotient_map @ kron_identity(h, res_tgt.induced.coalgebra.dim, left=True)
    return res_src.coeq.descend(lifted, "map does not descend: is h a contra-homomorphism?")


# -- the adjunction ---------------------------------------------------------------


def _unit(res: InductionResult) -> Mat:
    """The unit W -> Ind(W)|_D that gamma precomposes: Ind(W)'s free presentation
    after the splitting W -> Hom(C, W) by the counit of C, Ind(W)'s coalgebra."""
    c, presentation = res.induced.coalgebra, res.coeq.quotient_map
    return presentation @ kron_identity(c.epsilon.transpose(), presentation.cols // c.dim, left=False)


def gamma(res: InductionResult, phi: Mat) -> Mat:
    """Turn a contra-hom Ind(W) -> V into W -> V|_D by precomposing with the
    counit-induced splitting of the free presentation."""
    return phi @ _unit(res)


def _extension(res: InductionResult, v: Contramodule, wd: int) -> tuple[Mat, Mat]:
    """gamma_inv on flat coordinates, x*dim V + r for a map W -> V|_D and
    t*dim V + i for a map Ind(W) -> V (:func:`matrix.map_of_vec`), as two
    linear maps.  A map psi extends through V's coaction to Hom(C, W) -> V:
    entry coaction[c*dim V + i, r] goes to row (c*wd + x)*dim V + i, column
    x*dim V + r, for each x < wd.  ``section`` keeps the rows whose
    coordinate c*wd + x is a quotient coordinate (``coeq.where``), and
    ``kills`` is zero on psi exactly when its extension descends to Ind(W)."""
    coeq, dv, f = res.coeq, v.dim, v.field
    ext = {((idx // dv * wd + x) * dv + idx % dv, x * dv + r): val
           for (idx, r), val in v.left_coaction.data.items() for x in range(wd)}
    section = Mat(coeq.dim * dv, wd * dv, f, {(coeq.where[row // dv] * dv + row % dv, col): val
                                              for (row, col), val in ext.items() if row // dv in coeq.where})
    lift = Mat(v.coalgebra.dim * wd * dv, wd * dv, f, ext)
    return section, push(coeq.image_subspace.basis.transpose(), dv, False, lift)


_NOT_KILLED = "extension does not kill the induction relations"


def gamma_inv(res: InductionResult, v: Contramodule, psi: Mat) -> Mat:
    """Inverse direction: extend W -> V|_D to Ind(W) -> V via the
    contra-action of V (:func:`_extension`), which must descend."""
    dv, wd = v.dim, psi.cols
    if psi.rows != dv:
        raise ValueError(f"cannot extend {psi.rows}x{wd} maps into V of dimension {dv}")
    section, kills = _extension(res, v, wd)
    flat = Mat(wd * dv, 1, v.field, {(x * dv + r, 0): val for (r, x), val in psi.data.items()})
    if not (kills @ flat).is_zero():
        raise ValueError(_NOT_KILLED)
    return map_of_vec((section @ flat).col(0), res.dim, dv, v.field)


class AdjunctionReport(Record):
    def __init__(self, lhs_dim: int, rhs_dim: int, roundtrip_ok: bool):
        self.lhs_dim = lhs_dim
        self.rhs_dim = rhs_dim
        self.roundtrip_ok = roundtrip_ok

    @property
    def ok(self) -> bool:
        return self.lhs_dim == self.rhs_dim and self.roundtrip_ok


def _first_failure(count: int, tests: list) -> bool:
    """Walk the outcomes of count basis maps in the per-map loop's order.
    tests lists, in the order the loop runs them on one map, (m, raises):
    map j fails a test where column j of m is nonzero.  The first map that
    fails decides, by the first of its tests that fails: ValueError for an
    extension that does not descend, else False.  True when no map fails."""
    first, _, raises = min((min((j for _, j in m.data), default=count), pos, raises)
                           for pos, (m, raises) in enumerate(tests))
    if first == count:
        return True
    if raises:
        raise ValueError(_NOT_KILLED)
    return False


def adjunction_check(rho: CoalgebraMorphism, w: Contramodule, v: Contramodule) -> AdjunctionReport:
    """Dimension equality and both round trips of the adjunction isomorphism
    between Hom(Ind W, V) and Hom(W, V|_D); on flat coordinates gamma is
    unit^T (x) Id_V (:func:`matrix.push`).  The verdict is the per-map
    loop's: the first basis map that fails decides it, False, or ValueError
    when its extension does not descend.

    The first trip runs on a basis of Hom(Ind W, V).  Hom(W, V|_D) is the
    kernel of ``rhs_sys``, and only its dimension is needed: when the first
    trip passes, gamma maps Hom(Ind W, V) into that kernel, injectively since
    section o gamma = id on it.  With equal dimensions gamma is then onto, so
    every psi in Hom(W, V|_D) is gamma(phi) with phi = section(psi), and the
    second trip's three tests, ``kills``, ``lhs_sys`` o section and
    gamma o section - id, vanish on psi because they are linear and vanish
    on gamma(phi).  So the second trip, on a basis of the kernel, runs only
    when the first passes and the dimensions differ."""
    ind = Induction(rho)
    res, v_res = ind.induce(w), ind.restrict(v)
    lhs_sys, rhs_sys = _hom_system(res.induced, v), _hom_system(w, v_res)
    lhs, rhs_dim = kernel(lhs_sys), rhs_sys.cols - rank(rhs_sys)
    unit_t = _unit(res).transpose()
    section, kills = _extension(res, v, w.dim)
    # phi -> psi = gamma(phi): a contra-map whose extension descends, and gamma_inv(psi) = phi
    psis = push(unit_t, v.dim, False, lhs.basis)
    ok = _first_failure(lhs.dim, [(rhs_sys @ psis, False), (kills @ psis, True),
                                  (section @ psis - lhs.basis, False)])
    if ok and lhs.dim != rhs_dim:
        # psi -> phi = gamma_inv(psi): it descends, is a contra-map, and gamma(phi) = psi
        rhs = kernel(rhs_sys)
        phis = section @ rhs.basis
        ok = _first_failure(rhs.dim, [(kills @ rhs.basis, True), (lhs_sys @ phis, False),
                                      (push(unit_t, v.dim, False, phis) - rhs.basis, False)])
    return AdjunctionReport(lhs.dim, rhs_dim, ok)


# -- short exact sequences and exactness probes --------------------------------------


class ShortExactSeq(Record):
    def __init__(self, sub: Contramodule, mid: Contramodule, quot: Contramodule, incl: Mat, proj: Mat):
        self.sub = sub
        self.mid = mid
        self.quot = quot
        self.incl = incl
        self.proj = proj

    def validate(self) -> Verdict:
        names = ("inclusion-not-injective", "not-exact-at-mid", "projection-not-surjective")
        failures = [names[i] for i in exactness_failures([self.incl, self.proj])]
        if not is_comodule_map(self.sub, self.mid, self.incl):
            failures.append("inclusion-not-contra-map")
        if not is_comodule_map(self.mid, self.quot, self.proj):
            failures.append("projection-not-contra-map")
        return Verdict(failures)


class ExactnessVerdict(Record):
    def __init__(self, exact: bool, failures: list, dims: tuple):
        self.exact = exact
        self.failures = failures   # subset of {"left", "middle", "right"}
        self.dims = dims           # dimensions of the three terms, left to right

    @classmethod
    def of(cls, first: Mat, second: Mat) -> "ExactnessVerdict":
        """Where 0 -> X -> Y -> Z -> 0, with maps first and second, fails."""
        failures = [("left", "middle", "right")[i] for i in exactness_failures([first, second])]
        return cls(not failures, failures, (first.cols, first.rows, second.rows))


def exactness_probe(rho: CoalgebraMorphism, ses: ShortExactSeq) -> ExactnessVerdict:
    """:meth:`Induction.exactness_probe` along rho."""
    return Induction(rho).exactness_probe(ses)
