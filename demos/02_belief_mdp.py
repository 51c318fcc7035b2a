"""The belief MDP: budgets, feasibility pruning, and belief-dependent rewards.

A tiny rock-search instance shows how the pruned action set shrinks as the
budget runs down, and how the reward decomposes into expected interaction
payoff plus weighted information gain.
"""

import numpy as np

from infopath import IsrsInstance, IsrsMdp, Move, Sense
from infopath.mdp import action_label

inst = IsrsInstance(
    grid_size=4,
    rock_nodes=(5, 10),
    good_rocks=frozenset({5}),
    beacons=frozenset({0}),
    budget=10.0,
)
mdp = IsrsMdp(inst)
belief = mdp.initial_belief()

print("start/goal:", inst.start, "| budget:", inst.budget)
print("actions at the origin beacon:",
      [action_label(a) for a in mdp.feasible_actions(belief)])

# Burn budget moving away and back; watch the pruned set shrink.
for budget in (10.0, 4.0, 2.5, 1.0):
    b = type(belief)(location=belief.location, remaining_budget=budget,
                     gp=belief.gp, memory=belief.memory, step=0)
    acts = [action_label(a) for a in mdp.feasible_actions(b)]
    print(f"budget {budget:4.1f}: feasible = {acts}")

# Sense at the beacon: zero interaction reward, pure information gain.
rng = np.random.default_rng(0)
b_next, reward = mdp.generative_sample(belief, Sense("cheap"), rng)
gain = belief.gp.trace_of_variance() - b_next.gp.trace_of_variance()
print(f"\nsense:cheap  reward={reward:.3f} = lambda*{gain:.3f} "
      f"(lambda={mdp.information_weight})")

# March onto the good rock at node 5 = (1, 1), step off, and step back on:
# the first visit pays +10 and spends the rock, the revisit costs -10.
b = belief
print()
for target in (1, 5, 1, 5):
    r = mdp.true_reward(b, Move(target))
    obs = mdp.true_observation(b, Move(target), rng)
    b = mdp.transition(b, Move(target), obs)
    print(f"move:{target}  true reward = {r:+.0f}")
print("visited rocks:", sorted(b.memory))
print("belief at the rock after visiting:", round(float(b.gp.query_mean[5]), 3))
