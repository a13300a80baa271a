"""Numerical laboratory for commutator positivity and two-channel scattering
of 1D steplike Schrödinger operators on a finite Dirichlet box."""

from .grid import (
    CutoffPair,
    Grid,
    PotentialField,
    make_cutoffs,
    make_grid,
    make_steplike,
)
from .operators import (
    Band,
    OperatorSet,
    build_commutator_longrange,
    build_pair,
)
from .spectral import (
    EnergyWindow,
    SmoothingFunction,
    SpectralDecomposition,
    bump,
    eigendecompose,
    plateau,
    propagate,
    resolvent,
)
from .mourre import (
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
    WaveProbeReport,
    completeness_probe,
    gaussian_averaged_oracle,
    make_channel_packet,
    scattering_coefficients,
    sharp_step_oracle,
    stationary_coefficients,
    wave_operator_probe,
)

__version__ = "0.1.0"
