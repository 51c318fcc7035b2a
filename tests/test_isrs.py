import numpy as np
import pytest

from infopath.episodes import run_episode
from infopath.gp import JITTER_REL
from infopath.isrs import (
    DEFAULT_MODALITIES,
    IsrsInstance,
    IsrsMdp,
    generate_isrs,
    isrs_observe,
    isrs_true_reward,
    sensing_noise_stddev,
)
from infopath.mdp import Move, Sense
from infopath.policies import random_policy


def test_generate_degenerate_probabilities():
    all_good = generate_isrs(6, 8, 4, 1.0, seed=0)
    assert all_good.good_rocks == set(all_good.rock_nodes)
    all_bad = generate_isrs(6, 8, 4, 0.0, seed=0)
    assert not all_bad.good_rocks


def test_generate_deterministic_and_valid():
    a = generate_isrs(10, 10, 10, 0.5, seed=123)
    b = generate_isrs(10, 10, 10, 0.5, seed=123)
    assert a == b
    assert len(a.rock_nodes) == 10
    assert len(a.beacons) == 10
    assert 0 not in a.rock_nodes  # origin stays rock-free (start == goal)
    assert a.start == a.goal == 0


def test_generate_good_rock_concentration():
    # binomial(10, 0.5) sample mean over 500 seeds stays well inside [4, 6]
    counts = [len(generate_isrs(10, 10, 5, 0.5, seed=s).good_rocks) for s in range(500)]
    assert 4.0 <= np.mean(counts) <= 6.0


def test_generate_overfull_grid_rejected():
    with pytest.raises(ValueError):
        generate_isrs(3, 8, 2, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_isrs(3, 2, 10, 0.5, seed=0)


def test_instance_rejects_duplicate_rocks():
    with pytest.raises(ValueError):
        IsrsInstance(grid_size=3, rock_nodes=(4, 4), good_rocks=frozenset((4,)),
                     beacons=frozenset())


def test_true_reward_statefulness():
    inst = IsrsInstance(grid_size=3, rock_nodes=(4, 5), good_rocks=frozenset((4,)),
                        beacons=frozenset((0,)))
    assert isrs_true_reward(inst, frozenset(), Move(1)) == 0.0  # empty cell
    assert isrs_true_reward(inst, frozenset(), Move(4)) == 10.0  # first good visit
    assert isrs_true_reward(inst, frozenset({4}), Move(4)) == -10.0  # now spent
    assert isrs_true_reward(inst, frozenset(), Move(5)) == -10.0  # bad rock
    assert isrs_true_reward(inst, frozenset(), Sense("cheap")) == 0.0


def test_observe_noiseless_limit():
    mod = type(DEFAULT_MODALITIES[0])("exact", cost=1.0, noise_stddev=0.0)
    inst = IsrsInstance(grid_size=3, rock_nodes=(1, 4), good_rocks=frozenset((4,)),
                        beacons=frozenset((0,)), modalities=(mod,))
    rng = np.random.default_rng(0)
    obs = isrs_observe(inst, 0, mod, rng, JITTER_REL)
    values = {m.node: m.value for m in obs}
    assert values == {1: 0.0, 4: 1.0}


def test_observe_off_beacon_rejected():
    inst = IsrsInstance(grid_size=3, rock_nodes=(4,), good_rocks=frozenset(),
                        beacons=frozenset((0,)))
    with pytest.raises(ValueError):
        isrs_observe(inst, 5, inst.modalities[0], np.random.default_rng(0), JITTER_REL)


def test_noise_decay_rule():
    mod = DEFAULT_MODALITIES[0]
    d0 = 2.0
    assert sensing_noise_stddev(mod, 0.0, d0) == mod.noise_stddev
    assert sensing_noise_stddev(mod, 2 * d0, d0) == pytest.approx(4 * mod.noise_stddev)
    assert sensing_noise_stddev(mod, d0, d0) == pytest.approx(2 * mod.noise_stddev)


def test_observe_respects_radius():
    inst = IsrsInstance(grid_size=10, rock_nodes=(1, 99), good_rocks=frozenset((1,)),
                        beacons=frozenset((0,)), sensing_radius=4.0)
    obs = isrs_observe(inst, 0, inst.modalities[0], np.random.default_rng(1), JITTER_REL)
    assert [m.node for m in obs] == [1]  # node 99 is far outside the radius


def test_observation_noise_variance_scales_with_distance():
    inst = IsrsInstance(grid_size=10, rock_nodes=(1, 4), good_rocks=frozenset(),
                        beacons=frozenset((0,)), sensing_radius=4.0,
                        fidelity_doubling=2.0)
    mdp = IsrsMdp(inst)
    b = mdp.initial_belief()
    sites = dict(mdp.measurement_sites(b, Sense("cheap")))
    base = DEFAULT_MODALITIES[0].noise_stddev
    assert sites[1] == pytest.approx((base * 2 ** 0.5) ** 2)  # distance 1
    assert sites[4] == pytest.approx((base * 2 ** 2.0) ** 2)  # distance 4


def test_episode_positive_reward_bound():
    # total positive reward can never exceed 10 per good rock
    for seed in range(10):
        inst = generate_isrs(6, 6, 4, 0.7, seed=seed, budget=20.0)
        mdp = IsrsMdp(inst)
        log = run_episode(mdp, random_policy, seed=seed)
        positive = sum(r.true_reward for r in log.records if r.true_reward > 0)
        assert positive <= 10.0 * len(inst.good_rocks)


def test_revisits_always_penalized_in_episodes():
    inst = IsrsInstance(grid_size=3, rock_nodes=(1,), good_rocks=frozenset((1,)),
                        beacons=frozenset(), budget=10.0)
    mdp = IsrsMdp(inst)
    b = mdp.initial_belief()
    rng = np.random.default_rng(0)
    rewards = []
    for target in (1, 0, 1, 0):
        a = Move(target)
        rewards.append(mdp.true_reward(b, a))
        b = mdp.transition(b, a, mdp.true_observation(b, a, rng))
    assert rewards == [10.0, 0.0, -10.0, 0.0]


def test_ground_truth_immutable_under_sensing():
    inst = generate_isrs(6, 6, 4, 0.5, seed=3)
    before = (inst.rock_nodes, inst.good_rocks, inst.beacons)
    rng = np.random.default_rng(2)
    beacon = next(iter(inst.beacons))
    for _ in range(5):
        isrs_observe(inst, beacon, inst.modalities[0], rng, JITTER_REL)
    assert (inst.rock_nodes, inst.good_rocks, inst.beacons) == before
