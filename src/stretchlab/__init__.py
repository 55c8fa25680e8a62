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

Hot kernels run through a compiled Cython core when it is built, else
through its pure-Python twin; both produce identical output.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
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
from .curvegraph import (
    CurveGraph,
    SimpleCycle,
    clique_polynomial,
    curve_graph,
    curve_graph_shape,
    growth_rate,
    simple_cycles,
    verify_clique_identity,
)
from .families import (
    AdmissibilityReport,
    FamilyForm,
    enumerate_admissible,
    instantiate,
    monotonicity_scan,
    primitivity_compatible,
    quotient_exact,
    verify_low_degree_exceptions,
)
from .matrices import (
    IntMatrix,
    PrimitivityReport,
    char_poly,
    companion,
    determinant,
    in_glnz,
    is_primitive,
    normalized_spectral_radius,
    spectral_radius,
    verify_block_structure,
)
from .poly import IntPolynomial, cyclotomic, divrem, exact_div
from .roots import (
    DEFAULT_TOL,
    RootEnclosure,
    SturmChain,
    ValueInterval,
    compare_enclosures,
    largest_real_root,
    real_roots_in_interval,
    silver_ratio_squared,
    unit_circle_root_count,
)
from .search import SearchConfig, SearchResult, run_search, witness_check
from .sharpness import SharpnessExample, build_example, convergence_table
from .traintrack import (
    TrainTrack,
    WeightSpace,
    boundary_components,
    radical,
    radical_elements,
    thurston_form,
    weight_space,
)

__version__ = "0.1.0"
