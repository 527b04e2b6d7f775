"""Bound states of gated graphene wells in reduced units.

The library models quasiparticles governed by a two-component first-order
system in one effective dimension: a scalar potential well that is
translation invariant along the second axis traps states labeled by the
conserved transverse momentum.  Closed-form matching gives the square-well
spectrum and eigenfunctions; generic piecewise wells, smooth wells, and
uniform or proportional field combinations are covered by transfer
matching, shooting, and grid cross-checks.
"""

from .core import (
    CaseClass,
    CoulombLike,
    FieldConfig,
    Linear,
    Lorentzian,
    PiecewiseConstant,
    QuantumLabel,
    Tanh,
    build_M,
    classify_case,
    effective_energy,
    effective_potential_electric,
    evaluate_potential,
    potential_derivative,
    potential_from_json,
    potential_to_json,
    square_well,
    superpotential_proportional,
)
from .errors import (
    BrokenPTSymmetry,
    ConfigError,
    DegenerateMomentum,
    DiscontinuityPoint,
    GridTooCoarse,
    InvalidLevel,
    MismatchedMomentum,
    NonDecayingExterior,
    NotAnEigenvalue,
    NotConjugatePair,
    OutsideAdmissibleBand,
    SingularPoint,
    SolverError,
    UnboundedStateRequest,
    UnsupportedRegime,
    VerificationFailure,
)
from .matching import (
    SecularFunction,
    general_secular,
    region_wavenumbers,
    secular_det_general,
    secular_det_square_well,
    square_well_config,
    square_well_secular,
)
from .oracle import (
    GridSpec,
    dirac_shooting,
    grid_eigenvalues,
    partner_potentials,
    proportional_oscillator_levels,
    shooting_bound_states,
)
from .spectrum import (
    AdmissibleBand,
    SpectrumBranch,
    admissible_interval,
    branch_cut,
    branches_to_csv,
    branches_to_json_payload,
    count_bound_states,
    find_roots,
    landau_levels_magnetic,
    landau_levels_proportional,
    parameter_grid,
    spectrum_to_csv,
    sweep_k,
    sweep_v0,
)
from .states import (
    BoundState,
    DensityProfile,
    PiecewiseExp,
    ResidualReport,
    assemble_square_well_state,
    count_density_nodes,
    current_density,
    equation_residuals,
    fix_phase,
    gram_matrix,
    inner_product,
    partner_component,
    probability_density,
    product_integral,
    pt_eigenvalue,
    second_order_residuals,
    state_to_csv,
    state_to_json,
    to_real_spinor,
    with_phase,
)

__version__ = "0.1.0"
