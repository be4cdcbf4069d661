"""Exact-arithmetic toolkit for Mukai lattices, theta-bundle section counts
and strange-duality bookkeeping on K3-type surfaces."""

from .surfaces import (
    ModelMismatchError,
    MukaiVector,
    NSClass,
    SurfaceModel,
    chi_rr,
    chi_vec,
    elliptic_general,
    elliptic_k3,
    euler_form,
    euler_pair_hom,
    generic_k3,
    h0_coeffs,
    h0_surface,
    ideal_sheaf_vector,
    moduli_dim,
    mukai_dual,
    mukai_pair,
    mukai_tensor,
    normalized_vector,
    ns_pair,
    structure_vector,
    twist,
)
from .hilbert import (
    binom,
    exclusion_group_flags,
    exclusion_point_flags,
    exclusion_report,
    taut_det_sections,
)
from .fourier_mukai import (
    FMMatrix,
    derive_bridge_matrix,
    derive_fm_matrix,
    fm_apply,
    fm_c1_grr,
    verify_fm_suite,
)
from .duality import (
    DivisibilityError,
    DualityInstance,
    NuBoundError,
    compute_nu,
    deformation_setup,
    delta_bound,
    dimension_match,
    duality_line_bundle,
    duality_line_bundle_class,
    hypotheses_report,
    ogrady_tower,
    theta_relation_identity,
    tower_instance,
)
from .strata import (
    CodimAudit,
    Stratum,
    Wall,
    chain_audit,
    codim_audit,
    is_suitable,
    strata_enumerate,
    wall_enumerate,
)

__version__ = "0.1.0"
