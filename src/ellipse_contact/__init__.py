"""Hard-ellipse contact kernel: analytic distance of closest approach,
contact point, overlap predicate, excluded area, and a Monte Carlo driver.
"""

from .analysis import contact_locus, excluded_area, excluded_boundary
from .bulk import ContactArrays, contact_arrays
from .contact import (
    ConcentricCenters,
    ContactBranch,
    ContactSolution,
    OverlapVerdict,
    closest_approach,
    contact_point,
    overlap,
    tangency_residuals,
)
from .geometry import (
    DegenerateShape,
    EllipseShape,
    PairConfiguration,
    UnitVec2,
    Vec2,
    ZeroVector,
    make_pair_configuration,
)
from .mcsim import (
    AuditFailure,
    MCConfig,
    MCState,
    MoveStats,
    PackingInfeasible,
    audit_overlaps,
    init_state,
    load_mc_config,
    mc_sweep,
    order_parameter,
    run_simulation,
)
from .oracle import (
    oracle_distance,
    stratified_configuration,
    stratified_configurations,
    support_distances,
    verify_random,
)
from .quartic import (
    QuarticCoeffs,
    quartic_coefficients,
    solve_contact_quartic,
)
from .transform import TransformedPair, transformed_pair

__version__ = "0.1.0"
