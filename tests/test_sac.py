import tracemalloc

import numpy as np
import pytest

from musclerl.config import RunConfig
from musclerl.env import EYE_REWARD, reward
from musclerl.nets import (
    BLOCK,
    LOG_SD_MAX,
    LOG_SD_MIN,
    StackedNets,
    backward_stacked,
    forward_stacked,
    split_head,
    squash_mean,
    squash_sample,
)
from musclerl.randomize import SeededRng
from musclerl.sac import ReplayBuffer, SacAgent, Trajectory
from reference import forward


def make_agent(action_dim=2, hidden=8, seed=0, **kw):
    center = 0.0 if action_dim == 2 else 5.0
    half = 10.0 if action_dim == 2 else 5.0
    return SacAgent(obs_dim=6, action_dim=action_dim, rng=SeededRng(seed),
                    gru_hidden=hidden, action_center=center, action_half=half, **kw)


def make_traj(T=3, action_dim=2, seed=0, reward=None):
    rng = np.random.default_rng(seed)
    rewards = rng.normal(size=T) if reward is None else np.full(T, float(reward))
    return Trajectory(
        obs=rng.normal(size=(T + 1, 6)),
        outputs=rng.normal(size=(T + 1, 4)),
        actions=rng.uniform(-1, 1, size=(T, action_dim)),
        rewards=rewards,
    )


def test_soft_update_endpoints():
    agent = make_agent()
    online = agent.q1.flat.copy()
    agent.q1_target.flat[:] = 0.0
    agent.q2_target.flat[:] = 0.0
    agent.soft_update(0.0)
    assert np.all(agent.q1_target.flat == 0.0)
    agent.soft_update(1.0)
    assert np.array_equal(agent.q1_target.flat, online)


def test_soft_update_scalar_blend():
    agent = make_agent()
    agent.q1.flat[:] = 1.0
    agent.q1_target.flat[:] = 0.0
    agent.soft_update(0.005)
    assert np.allclose(agent.q1_target.flat, 0.005, rtol=0, atol=1e-15)


def test_blockwise_soft_update_matches_whole_vector_blend():
    # width 128: each critic holds about 1e5 parameters, three blocks and a tail
    agent = make_agent(hidden=128, seed=4)
    assert agent.q1.flat.size > 3 * BLOCK
    rng = np.random.default_rng(4)
    for net in (agent.q1, agent.q2, agent.q1_target, agent.q2_target):
        net.flat[:] = rng.normal(size=net.flat.size)
    tau = 0.005
    want = [t.flat * (1 - tau) + tau * o.flat
            for o, t in ((agent.q1, agent.q1_target), (agent.q2, agent.q2_target))]
    tracemalloc.start()
    try:
        agent.soft_update(tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(agent.q1_target.flat, want[0])
    assert np.array_equal(agent.q2_target.flat, want[1])
    assert peak < BLOCK * 8, peak


def test_update_builds_gradient_flats_only_where_used():
    agent = make_agent(hidden=6, seed=5)
    agent.update([make_traj(T=4, seed=i) for i in range(20)], gamma=0.9)
    built = {name: ws.grads is not None for name, ws in agent._ws.items()}
    assert built == {"actor": True, "target": False, "critic": True, "critic_pi": False}


def test_update_passes_share_one_activation_storage():
    # target, critic and critic_pi: three caches on one storage, per agent
    agents = [make_agent(hidden=6, seed=5), make_agent(hidden=6, seed=6)]
    for agent in agents:
        agent.update([make_traj(T=4, seed=i) for i in range(20)], gamma=0.9)
    for agent in agents:
        ws = agent._ws
        assert sorted(ws) == ["actor", "critic", "critic_pi", "target"]
        assert len({id(c) for c in ws.values()}) == 4
        assert ws["target"].pre is ws["critic"].pre is ws["critic_pi"].pre
        assert ws["actor"].pre is not ws["target"].pre
    assert agents[0]._ws["target"].pre is not agents[1]._ws["target"].pre


def _acts(agent, obs, steps=3):
    # bytes of a few deterministic acts, the hidden state carried
    h, out = agent.initial_hidden(), []
    for _ in range(steps):
        a, h = agent.act(obs, h, deterministic=True)
        out.append(a.tobytes() + h.tobytes())
    return out


def test_update_leaves_no_stacked_nets_in_its_caches():
    # a pass's StackedNets (weights plus transposes) would otherwise stay
    # alive until the next update built its successor next to it; acting
    # keeps no cache, and after an update it acts on the updated actor
    agent = make_agent(hidden=6, seed=7)
    batch = [make_traj(T=4, seed=i) for i in range(20)]
    obs = np.random.default_rng(7).normal(size=6)
    agent.act(obs, agent.initial_hidden(), rng=SeededRng(7))
    for _ in range(2):
        agent.update(batch, gamma=0.9)
        assert sorted(agent._ws) == ["actor", "critic", "critic_pi", "target"]
        assert all(cache.nets is None for cache in agent._ws.values())
        fresh = make_agent(hidden=6, seed=99)
        fresh.load_state(*agent.state())
        assert _acts(agent, obs) == _acts(fresh, obs)


def test_backward_through_a_released_cache_names_the_cause():
    # the update lets go of each cache's stack; a backward through such a
    # cache is refused with that reason, not an AttributeError from inside
    agent = make_agent(hidden=6, seed=7)
    agent.update([make_traj(T=4, seed=i) for i in range(20)], gamma=0.9)
    for name, out_dim in (("actor", 4), ("critic_pi", 1)):
        cache = agent._ws[name]
        dy = np.zeros((cache.S, cache.T, cache.B, out_dim), dtype=agent.dtype)
        with pytest.raises(ValueError, match="stack was released"):
            backward_stacked(cache, dy)


def test_width64_update_holds_one_critic_storage():
    # an S=2 critic pass's activations take 4.35 MB at width 64 and T=40, gx
    # and dgx being one array: the agent holds one such storage for its
    # three critic passes (three would put it near 17 MB), and builds no
    # cache only to drop it; measured 7.01 MB held and 8.69 MB peak
    T = 40
    batch = [make_traj(T=T, seed=i) for i in range(20)]
    agent = make_agent(hidden=64, seed=12)
    tracemalloc.start()
    try:
        agent.update(batch, gamma=0.99)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 7.5e6, held
    assert peak < 9.5e6, peak


def test_alternating_agents_match_agents_updating_back_to_back():
    def agents():
        return [make_agent(hidden=16, seed=20), make_agent(hidden=16, seed=21)]

    batches = [[[make_traj(T=5, seed=100 * k + 10 * n + i) for i in range(20)]
                for n in range(3)] for k in range(2)]

    def finish(pair, reports):
        return reports, [[a.tobytes() for a in agent.state()[1].values()] for agent in pair]

    pair = agents()
    reports = [[], []]
    for n in range(3):
        for k in range(2):
            reports[k].append(pair[k].update(batches[k][n], gamma=0.9))
    alternating = finish(pair, reports)
    pair = agents()
    back_to_back = finish(pair, [[agent.update(b, gamma=0.9) for b in bs]
                                 for agent, bs in zip(pair, batches)])
    assert alternating == back_to_back


def test_soft_update_target_lag_property():
    agent = make_agent(hidden=6, seed=3)
    prev = agent.q1_target.flat.copy()
    batch = [make_traj(T=4, seed=i) for i in range(20)]
    agent.update(batch, gamma=0.9)
    moved = np.linalg.norm(agent.q1_target.flat - prev)
    bound = 0.005 * np.linalg.norm(agent.q1.flat - prev) + 1e-12
    assert moved <= bound


def test_critic_target_uses_twin_minimum():
    for lo, hi, swap in ((1.0, 2.0, False), (1.0, 2.0, True)):
        agent = make_agent(hidden=4, seed=1, dtype=np.float64)
        for net in (agent.q1_target, agent.q2_target):
            net.flat[:] = 0.0
        (agent.q2_target if swap else agent.q1_target).v["b_out"][:] = lo
        (agent.q1_target if swap else agent.q2_target).v["b_out"][:] = hi
        T, N = 3, 5
        rng = np.random.default_rng(0)
        obs_all = rng.normal(size=(T + 1, N, 6))
        a_next = rng.normal(size=(T, N, 2))
        rewards = rng.normal(size=(T, N))
        logp = np.zeros((T, N))
        y = agent._critic_targets(obs_all, a_next, logp, rewards, 0.9)
        assert np.allclose(y, rewards + 0.9 * lo, rtol=0, atol=1e-12)


def test_entropy_term_subtracts_in_target():
    agent = make_agent(hidden=4, seed=2, dtype=np.float64)
    for net in (agent.q1_target, agent.q2_target):
        net.flat[:] = 0.0
    agent.log_alpha[:] = 0.0  # alpha = 1
    T, N = 2, 3
    obs_all = np.zeros((T + 1, N, 6))
    a_next = np.zeros((T, N, 2))
    rewards = np.zeros((T, N))
    logp = np.full((T, N), 0.7)
    y = agent._critic_targets(obs_all, a_next, logp, rewards, 1.0)
    assert np.allclose(y, -0.7)


def test_degenerate_bellman_regression_converges_to_reward():
    # gamma = 0 and alpha frozen at 0: the target is exactly r_t
    agent = make_agent(hidden=8, seed=4, fixed_alpha=0.0, lr=3e-3)
    traj = make_traj(T=1, seed=9, reward=0.5)
    batch = [traj] * 20
    for _ in range(800):
        agent.update(batch, gamma=0.0)
    q_in = np.concatenate([traj.obs[:1], traj.actions], axis=1)[:, None, :]
    q1, _, _ = forward(agent.q1, q_in)
    assert abs(float(q1[0, 0, 0]) - 0.5) < 1e-3


def test_repeated_updates_overfit_fixed_batch():
    agent = make_agent(hidden=8, seed=5, fixed_alpha=0.0, lr=3e-3)
    batch = [make_traj(T=4, seed=100 + i) for i in range(20)]
    first = agent.update(batch, gamma=0.0)
    for _ in range(198):
        agent.update(batch, gamma=0.0)
    last = agent.update(batch, gamma=0.0)
    assert last["critic1_loss"] <= first["critic1_loss"] / 10.0


def test_alpha_gradient_zero_at_entropy_target():
    probe = make_agent(hidden=6, seed=6)
    batch = [make_traj(T=3, seed=200 + i) for i in range(20)]
    report = probe.update(batch, gamma=0.9)
    measured_entropy = report["entropy"]
    # fresh identical agent whose target entropy equals the measured value:
    # its first update sees the same policy samples, so the alpha gradient is 0
    agent = make_agent(hidden=6, seed=6)
    agent.target_entropy = measured_entropy
    before = agent.log_alpha.copy()
    agent.update(batch, gamma=0.9)
    assert agent.log_alpha[0] == pytest.approx(before[0], abs=1e-12)


def test_update_is_deterministic():
    reports = []
    finals = []
    for _ in range(2):
        agent = make_agent(hidden=6, seed=7)
        batch = [make_traj(T=3, seed=300 + i) for i in range(20)]
        reports.append([agent.update(batch, gamma=0.95) for _ in range(5)])
        finals.append(agent.actor.flat.copy())
    assert reports[0] == reports[1]
    assert np.array_equal(finals[0], finals[1])


def test_update_does_not_mutate_stored_trajectories():
    agent = make_agent(hidden=6, seed=8)
    batch = [make_traj(T=3, seed=400 + i) for i in range(20)]
    blobs = [(t.obs.tobytes(), t.actions.tobytes(), t.rewards.tobytes()) for t in batch]
    agent.update(batch, gamma=0.9)
    after = [(t.obs.tobytes(), t.actions.tobytes(), t.rewards.tobytes()) for t in batch]
    assert blobs == after


def test_act_deterministic_mode_repeats():
    agent = make_agent(hidden=8, seed=9)
    obs = np.array([1.0, 0.2, -0.5, 0.0, 5.0, -5.0])
    h = agent.initial_hidden()
    a1, h1 = agent.act(obs, h, deterministic=True)
    a2, h2 = agent.act(obs, h, deterministic=True)
    assert np.array_equal(a1, a2)
    assert np.array_equal(h1, h2)


def _random_actor(agent, seed):
    # nonzero parameters throughout; the log-sd biases put the raw log-sd
    # head below LOG_SD_MIN, inside the clip and above LOG_SD_MAX
    rng = np.random.default_rng(seed)
    v, H, A = agent.actor.v, agent.gru_hidden, agent.action_dim
    agent.actor.flat[:] = rng.normal(scale=1.0 / np.sqrt(H), size=agent.actor.flat.size)
    for name in ("b_in", "bg", "b_out"):
        v[name][:] = rng.normal(scale=0.5, size=v[name].shape)
    v["b_out"][A:] = [-21.0, 0.0, 3.0]


@pytest.mark.parametrize("width", [8, 64, 256])
def test_act_matches_the_learner_forward_bit_for_bit(width):
    # the reference: forward_stacked over T = 1, split_head and squash_*,
    # the pass acting ran through before it had a cell of its own
    agent = make_agent(action_dim=3, hidden=width, seed=width)
    _random_actor(agent, width)
    sp, A = StackedNets([agent.actor]), agent.action_dim
    obs = np.random.default_rng(width + 1).normal(scale=5.0, size=(60, 6))
    raws = []
    for deterministic in (True, False):
        rng, ref_rng = SeededRng(width + 2), SeededRng(width + 2)
        h = ref_h = agent.initial_hidden()
        held = []
        for o in obs:
            a, h = agent.act(o, h, deterministic=deterministic, rng=rng)
            y, ref_h, _ = forward_stacked(sp, o.reshape(1, 1, 1, -1), ref_h)
            mu, log_sd, _ = split_head(y[0, 0, 0])
            raws.append(y[0, 0, 0, A:].copy())
            if deterministic:
                ref_a = squash_mean(mu, agent.action_center, agent.action_half)
            else:
                ref_a, _, _ = squash_sample(mu, log_sd, ref_rng.standard_normal(A),
                                            agent.action_center, agent.action_half)
            assert a.tobytes() == ref_a.tobytes() and h.tobytes() == ref_h.tobytes()
            held.append((h, h.tobytes()))
        # an earlier h_next is the caller's: later acts must not write into it
        assert all(h.tobytes() == blob for h, blob in held)
    raws = np.array(raws)
    assert raws.min() < LOG_SD_MIN and raws.max() > LOG_SD_MAX
    assert np.any((raws > LOG_SD_MIN) & (raws < LOG_SD_MAX))


@pytest.mark.parametrize("width", [8, 64, 256])
def test_batched_acts_equal_serial_acts_bit_for_bit(width):
    # B rows in one act against each row acted alone, 20 steps with the
    # hidden states carried; one seed serves both rngs, as the batch draws
    # its (B, A) noise in the order the serial loop draws its rows'. The
    # serial acts between two batched ones change B (81 -> 1 -> 81), so the
    # cell rebuilds its scratch, which must never write into a returned state
    agent = make_agent(action_dim=3, hidden=width, seed=width)
    _random_actor(agent, width)
    obs = np.random.default_rng(width + 3).normal(scale=5.0, size=(20, 81, 6))
    held = []
    for B in (1, 9, 81):
        for deterministic in (True, False):
            rng, ref_rng = SeededRng(width + 4), SeededRng(width + 4)
            h = agent.initial_hidden(B)
            ref_h = [agent.initial_hidden() for _ in range(B)]
            for t in range(20):
                a, h = agent.act(obs[t, :B], h, deterministic, rng=rng)
                assert a.shape == (B, 3) and h.shape == (B, 1, width)
                for b in range(B):
                    ref_a, ref_h[b] = agent.act(obs[t, b], ref_h[b], deterministic, rng=ref_rng)
                    assert a[b].tobytes() == ref_a.tobytes()
                    assert h[b].tobytes() == ref_h[b].tobytes()
                held.append((h, h.tobytes()))
    assert all(h.tobytes() == blob for h, blob in held)


def test_deterministic_acts_hold_no_memory():
    # 500 acts at width 64 after a warm-up, keeping only the latest action
    # and hidden state: measured 880 bytes held, where one leaked array per
    # act would hold over 50 kB
    agent = make_agent(action_dim=3, hidden=64, seed=15)
    _random_actor(agent, 15)
    obs = np.random.default_rng(15).normal(size=(500, 6))
    a, h = agent.act(obs[0], agent.initial_hidden(), deterministic=True)
    tracemalloc.start()
    try:
        for o in obs:
            a, h = agent.act(o, h, deterministic=True)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 2_000, held


def test_actions_stay_in_box():
    rng = np.random.default_rng(0)
    for seed in range(10):
        agent = make_agent(action_dim=3, hidden=6, seed=seed)
        h = agent.initial_hidden()
        noise = SeededRng(seed)
        for _ in range(300):
            obs = rng.normal(scale=5.0, size=6)
            a, h = agent.act(obs, h, rng=noise)
            assert np.all(a >= 0.0) and np.all(a <= 10.0)


def test_stochastic_act_without_rng_is_refused():
    # the agent's own noise stream is update's: acting must not draw from it
    agent = make_agent(action_dim=3, hidden=6, seed=2)
    before = repr(agent._noise_rng.get_state())
    with pytest.raises(ValueError, match="needs rng"):
        agent.act(np.zeros(6), agent.initial_hidden())
    assert repr(agent._noise_rng.get_state()) == before
    agent.act(np.zeros(6), agent.initial_hidden(), True)


def test_fresh_agent_zero_observation_acts_near_center():
    # zero biases keep the hidden state at zero, so the squashed mean is the
    # box centre exactly; check a spread of inits
    hits = 0
    for seed in range(40):
        agent = make_agent(action_dim=2, hidden=8, seed=seed)
        a, _ = agent.act(np.zeros(6), agent.initial_hidden(), deterministic=True)
        if np.all(np.abs(a) < 2.0):
            hits += 1
    assert hits >= 38  # 95 %


def test_buffer_fifo_eviction_and_capacity():
    buf = ReplayBuffer(capacity=5)
    for i in range(7):
        t = make_traj(T=1, seed=i)
        buf.push(t)
    assert len(buf) == 5
    # oldest two evicted: remaining seeds 2..6
    firsts = [t.obs[0, 0] for t in buf.snapshot()]
    expected = [make_traj(T=1, seed=i).obs[0, 0] for i in (5, 6, 2, 3, 4)]
    assert firsts == expected


def test_buffer_relabel_slots_match_list_of_copies_reference():
    # 1 + K = 3 slots per episode in a ring of 7, so the wrap evicts episode
    # 3's own slot while one of its relabels lives on
    T, K, capacity = 4, 2, 7
    buf = ReplayBuffer(capacity)
    ref, ref_next, pushed = [], 0, []
    rng = np.random.default_rng(5)
    for i in range(6):
        # rewards by the reward law, which a restored buffer recomputes
        traj = make_traj(T=T, seed=i)
        traj.rewards = reward(EYE_REWARD, traj.outputs[:-1], traj.target, traj.actions)
        targets = rng.uniform(-10, 10, size=(K, 2))
        rewards = reward(EYE_REWARD, traj.outputs[:-1], targets[:, None, :], traj.actions)
        copies = [traj]
        for target, row in zip(targets, rewards):
            obs = traj.obs.copy()
            obs[:, 4:6] = target
            copies.append(Trajectory(obs, traj.outputs.copy(), traj.actions.copy(),
                                     row.copy(), traj.controller))
        for c in copies:  # the list-of-copies FIFO the buffer replaces
            if len(ref) < capacity:
                ref.append(c)
            else:
                ref[ref_next] = c
                ref_next = (ref_next + 1) % capacity
        buf.push(traj, targets, rewards)
        pushed.append(traj)

    def blobs(trajs):
        return [(t.obs.tobytes(), t.outputs.tobytes(), t.actions.tobytes(),
                 t.rewards.tobytes(), t.controller) for t in trajs]

    snap = list(buf.snapshot())
    assert len(buf) == capacity and blobs(snap) == blobs(ref)
    own = {id(t.outputs) for t in snap if any(t is p for p in pushed)}
    assert id(pushed[3].outputs) in {id(t.outputs) for t in snap} - own
    for seed in range(5):
        assert blobs(buf.sample(5, SeededRng(seed))) == blobs(
            [ref[i] for i in SeededRng(seed).choice_without_replacement(capacity, 5)])
    with pytest.raises(ValueError):
        pushed[0].obs[0, 0] = 1.0  # slots share the stored arrays

    meta, arrays = buf.state()
    restored = ReplayBuffer(capacity)
    restored.load_state(meta, {k: v.copy() for k, v in arrays.items()}, EYE_REWARD)
    assert blobs(restored.snapshot()) == blobs(ref)
    meta2, arrays2 = restored.state()
    assert meta2 == meta and arrays2.keys() == arrays.keys()
    assert all(arrays2[k].tobytes() == arrays[k].tobytes() for k in arrays)
    assert arrays["buf_obs"].shape == (3, T + 1, 6)  # episodes 3, 4, 5, once each


def test_buffer_full_capacity_eviction():
    buf = ReplayBuffer(RunConfig.buffer_capacity)
    T = 1
    proto = make_traj(T=T, seed=0)
    for i in range(buf.capacity + 1):
        buf.push(proto)
    assert len(buf) == 100_000


def test_buffer_rejects_mismatched_episode_length():
    buf = ReplayBuffer(capacity=10)
    buf.push(make_traj(T=3, seed=0))
    with pytest.raises(ValueError):
        buf.push(make_traj(T=4, seed=1))


def test_buffer_sampling_contract():
    buf = ReplayBuffer(capacity=50)
    with pytest.raises(ValueError):
        buf.sample(20, SeededRng(0))
    items = [make_traj(T=2, seed=i) for i in range(30)]
    for t in items:
        buf.push(t)
    s1 = buf.sample(20, SeededRng(1))
    s2 = buf.sample(20, SeededRng(1))
    assert [id(a) for a in s1] == [id(b) for b in s2]
    assert len({id(t) for t in s1}) == 20  # without replacement
    # sampled views are the stored objects, bit-identical
    for t in s1:
        assert any(t is u for u in items)


def test_entropy_estimate_decreases_with_sd_cap():
    rng = np.random.default_rng(1)
    mu = rng.normal(size=(5000, 2))
    raw = np.full((5000, 2), 5.0)  # wants a huge sd; the cap binds
    noise = rng.normal(size=(5000, 2))
    entropies = []
    for cap in (0.0, 1.0, 2.0):
        log_sd = np.minimum(raw, cap)
        _, logp, _ = squash_sample(mu, log_sd, noise, 0.0, 10.0)
        entropies.append(float(np.mean(-logp)))
    # once the squash saturates, its density correction outweighs the wider
    # Gaussian: raising the sd cap lowers the reported entropy estimate
    assert entropies[0] > entropies[1] > entropies[2]


def test_trajectory_shape_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        Trajectory(obs=rng.normal(size=(3, 6)), outputs=rng.normal(size=(3, 4)),
                   actions=rng.normal(size=(3, 2)), rewards=rng.normal(size=3))


def test_actor_gradient_matches_finite_differences(monkeypatch):
    # End-to-end oracle for the assembled actor gradient: capture the exact
    # gradient the update feeds Adam (with all parameter mutation disabled),
    # then finite-difference an independent recomputation of the actor loss
    # that replays the same noise stream.
    import musclerl.sac as sac_mod

    agent = make_agent(action_dim=2, hidden=6, seed=12, fixed_alpha=0.3, dtype=np.float64)
    batch = [make_traj(T=4, seed=500 + i) for i in range(6)]
    T, N = 4, 6
    gamma = 0.9

    captured = []

    def capture_adam(params, grads, state):
        captured.append((params.shape, np.array(grads)))
        return params, state

    monkeypatch.setattr(sac_mod, "adam_update", capture_adam)
    state0 = agent._noise_rng.get_state()
    agent.update(batch, gamma)
    actor_grad = next(g for shp, g in captured if shp == agent.actor.flat.shape)

    obs_all = np.stack([t.obs for t in batch], axis=1)

    def actor_loss():
        agent._noise_rng.set_state(state0)
        noise_pi = agent._noise_rng.standard_normal((T, N, 2))
        y, _, _ = forward(agent.actor, obs_all)
        mu, log_sd, _ = split_head(y)
        a_pi, logp, _ = squash_sample(mu[:T], log_sd[:T], noise_pi,
                                      agent.action_center, agent.action_half)
        q_in = np.concatenate([obs_all[:T], a_pi], axis=2)
        q1, _, _ = forward(agent.q1, q_in)
        q2, _, _ = forward(agent.q2, q_in)
        qmin = np.minimum(q1[..., 0], q2[..., 0])
        return float(np.mean(0.3 * logp - qmin))

    rng = np.random.default_rng(0)
    idx = rng.choice(agent.actor.flat.size, size=40, replace=False)
    h = 1e-6
    for i in idx:
        orig = agent.actor.flat[i]
        agent.actor.flat[i] = orig + h
        fp = actor_loss()
        agent.actor.flat[i] = orig - h
        fm = actor_loss()
        agent.actor.flat[i] = orig
        num = (fp - fm) / (2 * h)
        assert actor_grad[i] == pytest.approx(num, rel=1e-4, abs=1e-8)


def test_load_state_replaces_everything_the_agent_acts_and_learns_from():
    # an agent that has acted holds a float64 act stack; load_state must drop it
    agent, other = make_agent(seed=20), make_agent(seed=21)
    other.update([make_traj(T=3, seed=700 + i) for i in range(20)], gamma=0.9)
    obs = np.random.default_rng(3).normal(size=6)
    agent.act(obs, agent.initial_hidden(), deterministic=True)
    agent.load_state(*other.state())
    for a, b in zip(agent.state(), other.state()):
        assert a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
    assert _acts(agent, obs) == _acts(other, obs)
    fresh = make_agent(seed=22)
    fresh.load_state(*agent.state())
    assert _acts(agent, obs) == _acts(fresh, obs)
    # the next update runs on the loaded weights too
    agent._noise_rng.set_state(other._noise_rng.get_state())
    batch = [make_traj(T=3, seed=800 + i) for i in range(20)]
    assert agent.update(batch, gamma=0.9) == other.update(batch, gamma=0.9)


def test_nonfinite_losses_raise():
    agent = make_agent(hidden=6, seed=10)
    bad = make_traj(T=2, seed=0)
    bad.rewards[0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        agent.update([bad] * 20, gamma=0.9)


def test_float32_update_tracks_float64(monkeypatch):
    # one update at the desk width on the same batch and noise state: the
    # losses and the gradients handed to Adam agree within 1e-4 relative
    import musclerl.sac as sac_mod

    batch = [make_traj(T=40, action_dim=3, seed=600 + i) for i in range(20)]
    runs = {}
    for dt in (np.float64, np.float32):
        agent = make_agent(action_dim=3, hidden=64, seed=14, dtype=dt)
        fed = {}
        names = {id(agent.opt_q1): "q1", id(agent.opt_q2): "q2", id(agent.opt_actor): "actor",
                 id(agent.opt_alpha): "alpha"}
        monkeypatch.setattr(sac_mod, "adam_update",
                            lambda p, g, st: fed.__setitem__(names[id(st)], g.copy()))
        report = agent.update(batch, gamma=0.99)
        runs[dt] = (report, fed)
    (ref_report, ref_grads), (report, grads) = runs[np.float64], runs[np.float32]
    for key, ref in ref_report.items():
        assert abs(report[key] - ref) <= 1e-4 * abs(ref), key
    for name in ("q1", "q2", "actor"):
        assert grads[name].dtype == np.float64
        err = np.linalg.norm(grads[name] - ref_grads[name]) / np.linalg.norm(ref_grads[name])
        assert err <= 1e-4, (name, err)
