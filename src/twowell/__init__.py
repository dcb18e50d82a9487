"""Two-well elastic energies with surface penalty: explicit branched
microstructures, energy evaluation, scaling laws and a direct minimizer."""

from .energy import EnergyBreakdown, QuadratureSpec, elastic_energy, total_energy, tv_bulk, tv_jump
from .fem import DiscreteField, Mesh, MinimizeOptions, MinimizeResult, discrete_energy, discrete_gradient, minimize, seed_from_construction
from .microstructure import (
    BranchingSchedule,
    assemble_branched,
    branching_schedule,
    best_construction,
    horizontal_branched,
    k1_boundary_cell,
    k1_cell,
    k2_boundary_cell,
    k2_cell,
    laminate,
    vertical_branched_k1,
)
from .piecewise import (
    CoverageReport,
    PiecewiseDeformation,
    Rect,
    coverage_check,
    gradient_jump,
    identity_deformation,
    mirror_x,
    rotate_90,
    rotate_values,
    write_manifest,
)
from .profiles import sawtooth, smooth_step
from .scaling import (
    BoundValue,
    bound_k1,
    bound_k2,
    check_average_lemma,
    classify_regime,
    localize_stripes,
    min_energy_bound,
    phase_diagram,
    thin_domain_bound,
)
from .wells import (
    CASE_K1,
    CASE_K2,
    WellSpec,
    angle_scan_distance,
    dist_to_rotated_well,
    dist_to_wells,
    interface_degeneracy_gap,
    rank_one_connections,
    well_matrices,
)

__version__ = "0.1.0"
