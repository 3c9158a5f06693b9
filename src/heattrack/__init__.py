"""Tracking prescribed heat profiles with point actuators.

The package splits into a spectral core (Neumann modes, exact forced
steps), actuator placement and its sampling matrices, output-feedback
tracking with stationary-bias correction, a resonant-particle realization
of the point inputs, free-space versus insulated-domain comparisons, and a
harness that turns validated configs into reproducible experiment runs.
"""

from . import rng
from .errors import (ConfigError, DegenerateNodesError, HeattrackError,
                     InsufficientDataError, InsufficientSignalError,
                     NonConvergenceError, RankDeficiencyError,
                     SingularSystemError, StageError)
from .spectral import (DomainSpec, ModeTable, enumerate_modes, eval_modes,
                       march_forced)
from .placement import (ActuatorSet, SamplingMatrices, dct_grid_box,
                        dct_nodes_interval, genericity_monte_carlo,
                        greedy_placement, min_norm_feedforward,
                        sampling_matrix, uniform_candidates)
from .control import (ClosedLoopSystem, assemble_bias_matrix,
                      assemble_closed_loop, contraction_diagnostics,
                      cross_integrator_check, decay_rate_fit,
                      doubling_gain_search, equilibrium,
                      fixed_point_reference, simulate_closed_loop,
                      tail_mismatch_report)
from .plasmonic import (PlasmonicConfig, calibrate_k0, invert_actuation,
                        volterra_solve)
from .restriction import (boundary_distance, images_point_solution,
                          restriction_gap_report)
from .harness.config import ExperimentConfig, load_config, profile_samples
from .harness.experiments import (coercivity_constant, run_calibrate,
                                  run_coercivity, run_place, run_restriction,
                                  run_simulate, run_sweep, run_track)

__version__ = "0.1.0"
