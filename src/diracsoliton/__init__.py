"""Floquet-Bloch band structures, Dirac points and Dirac solitons in 1D.

The pipeline: diagonalize the periodic operator (bloch), certify a band
crossing and its effective coefficients (dirac), evaluate the envelope
soliton of the reduced spinor system (homoclinic), assemble the
two-scale candidate field (ansatz), and correct it to a true solution
by Newton iteration (newton).  The cli module drives everything.
"""

from .bloch import (
    BandSweep,
    BlochSolution,
    FourierCutoff,
    ParityClass,
    PeriodicPotential,
    assemble_fb_matrix,
    band_sweep,
    bloch_wave_eval,
    cell_inner_product,
    solve_bands_at_k,
)
from .dirac import (
    DiracPointData,
    GapReport,
    band_slope_oracle,
    certify_dirac_point,
    compute_betas,
    compute_c_sharp,
    compute_theta_sharp,
    find_dirac_point,
    parity_block_split,
    verify_gap_opening,
)
from .homoclinic import (
    NLDParams,
    SpinorProfile,
    hamiltonian,
    integrate_homoclinic,
    kernel_check_on_Y,
)
from .ansatz import (
    SeparableForcing,
    TwoScaleField,
    assemble_udelta,
    build_G1,
    build_U0,
    evaluate_udelta,
    fit_order,
    residual_norm,
    solvability_check,
    solve_U1,
    staggered_grid,
)
from .newton import (
    NewtonConfig,
    Parity,
    SolitonField,
    discretize_operator,
    error_vs_ansatz,
    frequency_window_check,
    jacobian_min_eig,
    newton_solve,
    parity_from_theta,
)

__version__ = "0.1.0"
