"""contramod: exact computations with coalgebras, comodules and contramodules.

Finite-dimensional objects over the rationals or a prime field, with all of
the categorical plumbing done by exact sparse linear algebra: cotensor and
contratensor products, Cohom, induction and restriction along coalgebra
surjections, injectivity/projectivity tests, and a concrete SL2 catalog in
characteristic 2 with its Cohom tower.

Importing the package loads none of its submodules: ``_EXPORTS`` lists the
public names, ``__all__``, by submodule, and each is imported on first use
(PEP 562), so a CLI job loads only the layers its subcommand runs.  Each
operation has one name: a contramodule is a left comodule on the same
matrix, so its hom spaces, maps, subobjects, quotients and direct sums are
the ``comodule`` functions, and ``contramodule`` exports only what is its
own.
"""

_EXPORTS = {
    "coalgebra": (
        "Coalgebra", "CoalgebraMorphism", "Verdict", "check_coalgebra", "check_morphism",
        "divided_power_dual", "divided_power_surjection", "dual_of_algebra", "grouplike",
        "matrix_coalgebra",
    ),
    "comodule": (
        "Comodule", "check_comodule", "cofree", "comodule_over_self", "cotensor",
        "dual_comodule", "hom_comodules", "is_injective",
    ),
    "contramodule": (
        "Contramodule", "check_contramodule", "cohom", "contra_from_comodule",
        "contra_from_dual", "contratensor", "duality_check", "free_contramodule", "is_projective",
    ),
    "fields": ("FieldSpec", "GF", "GF2", "QQ"),
    "functors": (
        "Induction", "InductionResult", "ShortExactSeq", "adjunction_check", "exactness_probe",
        "gamma", "gamma_inv",
    ),
    "linalg": ("Subspace", "coequalizer", "equalizer", "image", "kernel", "rank"),
    "matrix": ("Mat",),
    "towers": ("cohom_tower",),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
