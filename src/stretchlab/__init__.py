"""stretchlab: exact spectral analysis of skew-reciprocal integer matrices.

Core surface:

- :mod:`stretchlab.poly`       exact integer polynomials and cyclotomics
- :mod:`stretchlab.roots`      Sturm chains and certified root enclosures
- :mod:`stretchlab.classify`   (skew-)reciprocity predicates and spectral class
- :mod:`stretchlab.matrices`   integer matrices: char poly, primitivity, GL_n(Z)
- :mod:`stretchlab.curvegraph` simple cycles, curve graphs, clique polynomials
- :mod:`stretchlab.families`   the five admissible polynomial families
- :mod:`stretchlab.sharpness`  the 2k-by-2k family converging to the silver bound
- :mod:`stretchlab.traintrack` standardly embedded train tracks and the skew
  form on their weight space
- :mod:`stretchlab.search`     exhaustive matrix searches against the bound

The matrix kernels that ``matrices``, ``traintrack`` and the search filter
share (char poly, fraction-free echelon form and determinant, digraph
structure) live in the pure-Python module ``_kernels``; the orbit scan
lives in ``search``, and cycle and clique enumeration in ``curvegraph``.

The names below resolve on first use (PEP 562), so ``import stretchlab``
and each CLI command load only the modules they need.  The ``classify``
block is the exception: importing the submodule ``stretchlab.classify``
binds the package attribute ``classify`` to the module, and importing it
here, first, keeps ``stretchlab.classify`` the function whatever the
import order.
"""

from importlib import import_module as _import_module

from .classify import (
    SpectralClass,
    classify,
    is_reciprocal,
    is_salem_like,
    is_skew_reciprocal,
    is_skew_reciprocal_up_to_cyclotomic,
    parity_condition,
    sqrt_min_poly,
    strip_cyclotomic,
)

__version__ = "0.1.0"

#: What a finite check shows, stated in every report of a paper-level claim.
SCOPE_NOTE = (
    "finite desk-scale verification; the underlying theorems cover all "
    "dimensions n >= 4 and all k"
)

#: Submodule -> the public names the package re-exports from it on first use.
_EXPORTS = {
    "curvegraph": (
        "CurveGraph",
        "SimpleCycle",
        "clique_polynomial",
        "curve_graph",
        "curve_graph_shape",
        "growth_rate",
        "simple_cycles",
        "verify_clique_identity",
    ),
    "families": (
        "AdmissibilityReport",
        "FamilyForm",
        "enumerate_admissible",
        "instantiate",
        "monotonicity_scan",
        "primitivity_compatible",
        "verify_low_degree_exceptions",
    ),
    "matrices": (
        "IntMatrix",
        "PrimitivityReport",
        "char_poly",
        "companion",
        "determinant",
        "in_glnz",
        "is_primitive",
        "normalized_spectral_radius",
        "spectral_radius",
        "verify_block_structure",
    ),
    "poly": ("IntPolynomial", "cyclotomic", "divrem", "exact_div"),
    "roots": (
        "DEFAULT_TOL",
        "RootEnclosure",
        "SturmChain",
        "ValueInterval",
        "compare_enclosures",
        "largest_real_root",
        "real_roots_in_interval",
        "silver_ratio_squared",
        "unit_circle_root_count",
    ),
    "search": ("SearchConfig", "SearchResult", "run_search", "witness_check"),
    "sharpness": ("SharpnessExample", "build_example", "convergence_table"),
    "traintrack": (
        "TrainTrack",
        "WeightSpace",
        "boundary_components",
        "radical",
        "radical_elements",
        "thurston_form",
        "weight_space",
    ),
}

#: Lazily resolved public name -> (submodule, attribute).
_LAZY = {name: (module, name) for module, names in _EXPORTS.items() for name in names}

#: Submodules reachable as attributes of the package, as after an eager import.
_SUBMODULES = {"_kernels", *_EXPORTS}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _LAZY[name]
    value = getattr(_import_module(f".{module}", __name__), attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_SUBMODULES})
