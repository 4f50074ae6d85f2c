"""contramod: exact computations with coalgebras, comodules and contramodules.

Finite-dimensional objects over the rationals or a prime field, with all of
the categorical plumbing done by exact sparse linear algebra: cotensor and
contratensor products, Cohom, induction and restriction along coalgebra
surjections, injectivity/projectivity tests, Mittag-Leffler inverse systems,
and a concrete SL2 catalog in characteristic 2.
"""

from .coalgebra import (
    Coalgebra, CoalgebraMorphism, Verdict, check_coalgebra, check_morphism,
    divided_power_dual, divided_power_surjection, dual_of_algebra, grouplike,
    matrix_coalgebra,
)
from .comodule import (
    Comodule, check_comodule, cofree, comodule_over_self, cotensor, dual_comodule,
    head_radical, hom_comodules, is_injective, trivial_comodule,
)
from .contramodule import (
    Contramodule, check_contramodule, cohom, contra_from_comodule, contra_from_dual,
    contratensor, duality_check, free_contramodule, hom_contra, is_projective,
    trivial_contramodule,
)
from .fields import FieldSpec, GF, GF2, GF3, QQ
from .functors import (
    InductionResult, ShortExactSeq, adjunction_check, comodule_along, exactness_probe,
    gamma, gamma_inv, induce, restrict,
)
from .linalg import Subspace, coequalizer, equalizer, image, kernel, rank
from .matrix import Mat, kron
from .towers import InverseSystem, cohom_tower, is_mittag_leffler, limit_four_term

__all__ = [
    "Coalgebra", "CoalgebraMorphism", "Comodule", "Contramodule",
    "FieldSpec", "GF", "GF2", "GF3", "QQ",
    "InductionResult", "InverseSystem", "Mat", "ShortExactSeq", "Subspace", "Verdict",
    "adjunction_check", "check_coalgebra",
    "check_comodule", "check_contramodule", "check_morphism", "coequalizer", "cofree",
    "cohom", "cohom_tower", "comodule_along", "comodule_over_self",
    "contra_from_comodule", "contra_from_dual", "contratensor", "cotensor",
    "divided_power_dual", "divided_power_surjection", "dual_comodule",
    "dual_of_algebra", "duality_check", "equalizer", "exactness_probe",
    "free_contramodule", "gamma", "gamma_inv", "grouplike",
    "head_radical", "hom_comodules", "hom_contra", "image", "induce",
    "is_injective", "is_mittag_leffler", "is_projective", "kernel", "kron",
    "limit_four_term", "matrix_coalgebra", "rank", "restrict",
    "trivial_comodule", "trivial_contramodule",
]

__version__ = "0.1.0"
