"""Budget-constrained informative path planning with Gaussian process beliefs.

The toolkit models exploration as a belief MDP: the agent's belief over the
world is a Gaussian process, moving and sensing spend a shared budget, and
rewards mix expected environment payoffs with the drop in total belief
variance. An online Monte Carlo tree search with double progressive widening
plans over belief states; two grid benchmarks (rock search with beacons, and
a rover with spectrometer and drill) plus baseline policies and a batch
harness round out the package.
"""

from .episodes import EpisodeLog, StepRecord, run_episode
from .gp import (
    GaussianProcessBelief,
    PosteriorSummary,
    SingularCovarianceError,
    SquaredExponential,
    conditional_entropy,
    mutual_information_exact,
    mutual_information_trace,
)
from .graph import LocationGraph, shortest_path_cost
from .isrs import IsrsInstance, IsrsMdp, generate_isrs, isrs_observe, isrs_true_reward
from .mcts import SolverConfig, plan, search
from .mdp import (
    Action,
    BeliefMdp,
    BeliefState,
    Measurement,
    MISSION_FAILURE_REWARD,
    Move,
    Sense,
    SensingModality,
)
from .policies import MctsPolicy, RasterPolicy, RasterPlan, random_policy, raster_policy
from .rover import (
    RoverInstance,
    RoverMdp,
    generate_rover,
    generate_rover_map,
    rmse,
    rover_observe,
    rover_true_reward,
)

__all__ = [
    "Action",
    "BeliefMdp",
    "BeliefState",
    "EpisodeLog",
    "GaussianProcessBelief",
    "IsrsInstance",
    "IsrsMdp",
    "LocationGraph",
    "MISSION_FAILURE_REWARD",
    "MctsPolicy",
    "Measurement",
    "Move",
    "PosteriorSummary",
    "RasterPlan",
    "RasterPolicy",
    "RoverInstance",
    "RoverMdp",
    "Sense",
    "SensingModality",
    "SingularCovarianceError",
    "SolverConfig",
    "SquaredExponential",
    "StepRecord",
    "conditional_entropy",
    "generate_isrs",
    "generate_rover",
    "generate_rover_map",
    "isrs_observe",
    "isrs_true_reward",
    "mutual_information_exact",
    "mutual_information_trace",
    "plan",
    "random_policy",
    "raster_policy",
    "rmse",
    "rover_observe",
    "rover_true_reward",
    "run_episode",
    "search",
    "shortest_path_cost",
]

__version__ = "0.1.0"
