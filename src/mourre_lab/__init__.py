"""Numerical laboratory for commutator positivity and two-channel scattering
of 1D steplike Schrödinger operators on a finite Dirichlet box."""

from .grid import (
    CutoffPair,
    Grid,
    PotentialField,
    TailReport,
    make_cutoffs,
    make_grid,
    make_steplike,
    tail_metrics,
)
from .operators import (
    Band,
    OperatorSet,
    build_commutator_longrange,
    build_pair,
    load_matrix,
    save_matrix,
)
from .spectral import (
    EnergyWindow,
    SmoothingFunction,
    SpectralDecomposition,
    bump,
    eigendecompose,
    gaussian,
    plateau,
    propagate,
    resolvent,
    spectral_projection,
)
from .mourre import (
    DiscardPolicy,
    RhoEstimate,
    TransferReport,
    analytic_rho,
    estimate_rho_eta,
    estimate_rho_window,
    rho_scan,
    transfer_verify,
)
from .hypotheses import (
    C1Report,
    CompactnessReport,
    assumption_operator,
    c1_probe,
    compactness_report,
    long_range_operator,
    short_range_operator,
)
from .scattering import (
    CompletenessReport,
    ScatteringCoefficients,
    TwoSpaceState,
    WaveProbeReport,
    completeness_probe,
    gaussian_averaged_oracle,
    make_channel_packet,
    scattering_coefficients,
    sharp_step_oracle,
    wave_operator_probe,
)

__version__ = "0.1.0"
