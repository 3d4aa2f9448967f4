"""Numerical laboratory for the nonlocal Fisher-KPP equation on bounded domains.

Simulates u_t = mu (1 - K[u]) u + Laplacian(u) with no-flux boundaries,
certifies whether the interaction kernel K has a nonnegative quadratic form
(the hypothesis behind global convergence to the homogeneous state 1), tracks
the Lyapunov functional V(u) = integral of (u - 1 - ln u) and its dissipation,
and analyses the Turing instability that appears when the hypothesis fails.
"""

__version__ = "0.1.0"

from .diagnostics import (Dissipation, Snapshot, Trace, cosine_mode_rates,
                          cosine_modes, decay_identity_residual, dissipation,
                          linearization_matrix, lyapunov_value,
                          most_unstable_cosine_mode, spectral_abscissa,
                          sup_distance_to_one, turing_onset)
from .dynamics import DiffusionSolver, SimConfig, SimState, reaction_term, run, step_imex
from .errors import (BalancingError, DomainError, KernelError, NumericalError,
                     ShapeError, StepFailure, ValidationError)
from .fieldio import read_field, write_field
from .grid import Field, Grid, build_uniform_grid, integrate
from .kernels import (Kernel, KernelProfile, PositivityCertificate,
                      apply_kernel, certify_positivity_bochner,
                      certify_positivity_eigen, default_half_width,
                      normalize_columns, sample_convolution_kernel,
                      sample_general_kernel, symmetrize_and_normalize)
from .scenario import (Scenario, SweepSpec, build_kernel, certify_scenario,
                       parse_scenario, parse_scenario_dict, parse_sweep,
                       parse_sweep_dict, read_csv_rows, run_scenario, run_sweep)

__all__ = [name for name in dir() if not name.startswith("_")]
