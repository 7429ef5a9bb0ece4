"""isohull: symmetric convex hulls of random sphere points.

Builds the boundary complex of conv{+-P_1, ..., +-P_m} for uniform sphere
points, computes volume, second moments, and the isotropy constant exactly
through facet/cone decompositions, and runs seeded experiment campaigns
that compare the observed statistics against the known concentration
bounds.
"""

__version__ = "0.1.0"

from .sphere_stats import (
    RngStream,
    derive_seed,
    sample_symmetric_cloud,
    sphere_abs_moment,
    cap_tail_prob,
    psi2_norm_estimate,
    bernstein_bound,
)
from .hull import (
    FacetComplex,
    symmetric_hull,
    validate_complex,
    inradius,
    dump_off_like,
)
from .moments import (
    polytope_volume,
    polytope_mean_square,
    polytope_covariance,
    sample_in_polytope,
    mc_moment_oracle,
)
from .isotropy import (
    IsotropyReport,
    isotropy_constant,
)
from .harness import (
    ExperimentConfig,
    TrialRecord,
    run_trial,
    run_experiment,
    check_inradius_bound,
    check_second_moment_bound,
    check_isotropy_threshold,
    emit_records,
)

__all__ = [
    "RngStream",
    "derive_seed",
    "sample_symmetric_cloud",
    "sphere_abs_moment",
    "cap_tail_prob",
    "psi2_norm_estimate",
    "bernstein_bound",
    "FacetComplex",
    "symmetric_hull",
    "validate_complex",
    "inradius",
    "dump_off_like",
    "polytope_volume",
    "polytope_mean_square",
    "polytope_covariance",
    "sample_in_polytope",
    "mc_moment_oracle",
    "IsotropyReport",
    "isotropy_constant",
    "ExperimentConfig",
    "TrialRecord",
    "run_trial",
    "run_experiment",
    "check_inradius_bound",
    "check_second_moment_bound",
    "check_isotropy_threshold",
    "emit_records",
]
