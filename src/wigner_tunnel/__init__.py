"""Large-time Wigner phase-space propagators for 1D barrier scattering."""

from .barriers import (
    Barrier,
    DeltaBarrier,
    EikonalBarrier,
    NumericBarrier,
    PoschlTellerBarrier,
    barrier_from_dict,
    eikonal_action,
    find_poles,
    residue_factors,
    tunneling_integral,
)
from .evolution import (
    DetectionResult,
    GaussianState,
    WignerGrid,
    arrival_time_estimate,
    barrier_propagate,
    detect,
    detector_propagate,
    free_propagate,
    gaussian_detection,
    gaussian_to_grid,
    purity_bound,
    sector_masses,
)
from .kernels import (
    ClassicalLag,
    KernelDensity,
    SemiclassicalValue,
    classical_limit_lag,
    delta_kernels,
    interference_eval,
    kernel_by_quadrature,
    kernel_by_residues,
    pt_kernels,
    semiclassical_kernel,
    total_probabilities,
)
from .specfun import airy_ai, big_w, faddeeva_w, gamma_cx, hyp4f3
from .transients import (
    TransientResult,
    delta_offshell_T,
    delta_transient_J,
    discontinuity_check_delta,
)

__version__ = "0.1.0"
