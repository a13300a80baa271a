"""Numerical laboratory for commutator positivity and two-channel scattering
of 1D steplike Schrödinger operators on a finite Dirichlet box.

The package exports the entry points its demos, tests and README import;
every type and helper stays importable from its own module."""

from .grid import make_grid, make_steplike
from .operators import build_pair
from .spectral import bump, eigendecompose, resolvent
from .mourre import analytic_rho, rho_scan, transfer_verify
from .hypotheses import assumption_operator, c1_probe, short_range_operator
from .scattering import (
    completeness_probe,
    gaussian_averaged_oracle,
    make_channel_packet,
    scattering_coefficients,
    stationary_coefficients,
    wave_operator_probe,
)

__version__ = "0.1.0"
