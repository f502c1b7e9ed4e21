"""Two-player stochastic game planning toolkit.

Three planners over a shared bimatrix-game layer:

* `finite_vi` -- finite-horizon Nash value iteration over backup matrices,
  with an exact best-response certificate (`nash_certificate`);
* `sparse_game` / `induced_policy` -- on-line sparse-sampling near-Nash
  planning from a generative model, with an exact-expectation oracle;
* `infinite_vi` -- discounted security value iteration with contraction
  and worst-case certificates, plus a Nash-selection oscillation probe.
"""

from .errors import (DegenerateGame, DimensionMismatch, EnumerationCapExceeded,
                     GameFileError, MissingPolicyEntry, NodeBudgetExceeded,
                     SelectionFailure, SgError)
from .matrix_games import (ENUMERATION_CAP, SUPPORT_TOL, VERIFY_TOL, MatrixGame,
                           MixedStrategy, StrategyProfile, best_response,
                           enumerate_nash, epsilon_nash_gap, expected_payoff,
                           nash_select, security_level, security_select,
                           solve_zero_sum)
from .game_model import (ExplicitGenerativeModel, GenerativeModel,
                         StationaryPolicy, StochasticGame, TimeDependentPolicy,
                         ValidationReport, as_generative, random_game,
                         single_state_game, validate)
from .finite_planner import (BackupTable, FiniteVIResult, best_response_dp,
                             finite_vi, nash_certificate, policy_value)
from .sparse_planner import (GapRow, InducedPolicyPair, SparsePlanResult,
                             derive_seed, exact_sparse_game, gap_experiment,
                             induced_policy, sample_size, sparse_game)
from .discounted_planner import (ContractionReport, InfiniteVIResult,
                                 ProbeReport, contraction_check, infinite_vi,
                                 nash_mode_probe, security_certificate)
from .io import (load_game, load_policy_pair, save_game, save_policy_pair,
                 write_trace)

__version__ = "0.1.0"
