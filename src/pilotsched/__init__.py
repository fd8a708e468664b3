"""Pilot-versus-data scheduling over a time-correlated fading link.

Building blocks: a Jakes-spectrum fading simulator, aged-pilot MMSE channel
estimation, BLER-constrained MCS selection, the threshold pilot-scheduling
solver with two independent optimality oracles, and a closed-loop simulator.
"""

from .channel import (LinkParams, FadingTrace, SPEED_OF_LIGHT, MPH_TO_MPS, bessel_j0,
                      autocorrelation, generate_fading_trace, empirical_autocorrelation)
from .estimation import mmse_gain, sinr_gain, error_variance, pilot_second_moment
from .link_adaptation import (McsEntry, McsTable, RewardCurve,
                              LogisticBlerCurve, TabulatedBlerCurve,
                              expected_goodputs, build_reward_curve,
                              load_bler_table, load_mcs_rates, load_reward_curve,
                              default_mcs_table, parametric_mcs_table)
from .scheduler import (ThresholdSolution, HorizonExhaustedError,
                        index_gamma, hitting_age, solve_threshold,
                        brute_force_optimal_period, policy_iteration)
from .simulation import EXPECTED, REALIZED, SimulationResult, run_policy, derive_streams
from .config import ExperimentConfig, load_config, default_config

__version__ = "0.1.0"
