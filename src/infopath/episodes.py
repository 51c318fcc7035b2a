"""Episode execution against ground truth, with belief-quality metrics.

run_episode drives a policy through an environment: the policy picks actions
from the current belief, the environment supplies the true observation and
the true reward, and the belief is updated through the same transition the
planner uses. Each step is logged with the remaining budget, the total
belief variance and the belief RMSE against the hidden map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mdp import MISSION_FAILURE_REWARD, action_label

STATUS_GOAL = "reached-goal"
STATUS_FAILURE = "mission-failure"
STATUS_ABORTED = "aborted-infeasible"


@dataclass(frozen=True)
class StepRecord:
    step: int
    node: int
    x: float
    y: float
    action: str
    remaining_budget: float
    true_reward: float
    trace_of_variance: float
    rmse: float


@dataclass(frozen=True)
class EpisodeLog:
    """Everything needed to audit one episode."""

    records: tuple[StepRecord, ...]
    status: str
    seed: int
    config: dict = field(default_factory=dict)
    initial_trace: float = float("nan")
    initial_rmse: float = float("nan")
    final_belief: object = None

    @cached_property
    def true_reward_sum(self) -> float:
        return float(sum(r.true_reward for r in self.records))

    @property
    def reward(self) -> float:
        """Episode reward with the mission-failure sentinel applied."""
        if self.status != STATUS_GOAL:
            return MISSION_FAILURE_REWARD
        return self.true_reward_sum

    @property
    def final_trace(self) -> float:
        return self.records[-1].trace_of_variance if self.records else self.initial_trace

    @property
    def final_rmse(self) -> float:
        return self.records[-1].rmse if self.records else self.initial_rmse

    def trace_series(self) -> np.ndarray:
        return np.array([r.trace_of_variance for r in self.records])

    def rmse_series(self) -> np.ndarray:
        return np.array([r.rmse for r in self.records])


def episode_rng(seed) -> np.random.Generator:
    """Episode RNG stream, decorrelated from instance-generation streams that
    use the bare seed."""
    return np.random.default_rng([int(seed), 1])


def run_episode(mdp, policy, seed, config=None) -> EpisodeLog:
    """Execute one episode. The policy is a callable (belief, mdp, rng) -> Action
    or None; returning None ends the episode (e.g. a finished fixed plan).

    Ends at the first terminal belief: reached-goal when the agent sits on the
    goal, mission-failure otherwise. A policy action that is inapplicable or
    unaffordable aborts the episode with a distinguished status.
    """
    rng = episode_rng(seed)
    belief = mdp.initial_belief()
    records = []
    initial_trace = belief.gp.trace_of_variance()
    initial_rmse = mdp.belief_rmse(belief)
    status = None
    while True:
        if mdp.is_terminal(belief):
            break
        action = policy(belief, mdp, rng)
        if action is None:
            break
        try:
            mdp._affordable_step(belief, action)
        except ValueError:  # inapplicable or unaffordable
            status = STATUS_ABORTED
            break
        reward = mdp.true_reward(belief, action)
        observation = mdp.true_observation(belief, action, rng)
        belief = mdp.transition(belief, action, observation)
        x, y = mdp.graph.coord(belief.location)
        records.append(StepRecord(
            step=belief.step,
            node=belief.location,
            x=x,
            y=y,
            action=action_label(action),
            remaining_budget=belief.remaining_budget,
            true_reward=reward,
            trace_of_variance=belief.gp.trace_of_variance(),
            rmse=mdp.belief_rmse(belief),
        ))
    if status is None:
        status = STATUS_GOAL if belief.location == mdp.graph.goal else STATUS_FAILURE
    return EpisodeLog(
        records=tuple(records),
        status=status,
        seed=int(seed),
        config=dict(config or {}),
        initial_trace=initial_trace,
        initial_rmse=initial_rmse,
        final_belief=belief.gp,
    )
