"""Transversal laboratory: complex hyperplane transversals for families of
vertex-generated convex sets, with LP-certified consistency checks.

The package decides and searches in tandem: `check_dependency_consistency`
certifies whether a candidate witness admits nonnegative lifts for every
affine dependence among its targets, while `find_complex_transversal` and
`find_borsuk_zero` hunt for an actual common hyperplane, the latter through
zeros of an odd map on the unit sphere built from closest projection
coefficients.  Every fail verdict is backed by a rationally confirmed
infeasibility certificate."""

from __future__ import annotations

__version__ = "0.1.0"

from .consistency import (
    AffineDependence,
    ConsistencyConfig,
    ConsistencyWitness,
    check_dependency_consistency,
    lift_dependence,
    reduce_dependence_support,
    separates_consistently,
    trivial_witness,
)
from .geometry import (
    ComplexHyperplane,
    Family,
    PoleError,
    Polytope,
    SpherePoint,
    embed_family,
    hermitian_inner,
    hyperplane_from_sphere_point,
)
from .harness import (
    EquivConfig,
    ExperimentReport,
    GenSpec,
    Instance,
    gen_instance,
    read_instance,
    reverify_report,
    run_equivalence,
    witness_from_transversal,
    write_instance,
    write_report,
)
from .lp import (
    LinearProgram,
    hulls_intersect,
    kirchberger_separated,
    lp_feasible,
)
from .plotting import plot_instance
from .transversal import (
    NotFound,
    RealHyperplane,
    TransversalConfig,
    borsuk_map,
    borsuk_zero_dependence,
    find_borsuk_zero,
    find_complex_transversal,
    real_hyperplane_transversal,
    verify_transversal,
)

__all__ = [
    "__version__",
    "AffineDependence",
    "ComplexHyperplane",
    "ConsistencyConfig",
    "ConsistencyWitness",
    "EquivConfig",
    "ExperimentReport",
    "Family",
    "GenSpec",
    "Instance",
    "LinearProgram",
    "NotFound",
    "PoleError",
    "Polytope",
    "RealHyperplane",
    "SpherePoint",
    "TransversalConfig",
    "borsuk_map",
    "borsuk_zero_dependence",
    "check_dependency_consistency",
    "embed_family",
    "find_borsuk_zero",
    "find_complex_transversal",
    "gen_instance",
    "hermitian_inner",
    "hulls_intersect",
    "hyperplane_from_sphere_point",
    "kirchberger_separated",
    "lift_dependence",
    "lp_feasible",
    "plot_instance",
    "read_instance",
    "real_hyperplane_transversal",
    "reduce_dependence_support",
    "reverify_report",
    "run_equivalence",
    "separates_consistently",
    "trivial_witness",
    "verify_transversal",
    "witness_from_transversal",
    "write_instance",
    "write_report",
]
