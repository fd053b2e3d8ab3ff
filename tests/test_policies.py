import numpy as np
import pytest

from minimanip import data, env, nn, policies, prompts
from minimanip import inverse_dynamics as idm


@pytest.fixture(scope="module")
def episodes():
    trajs = [data.run_episode("drawer-open", s, epsilon=0.1) for s in range(3)]
    return policies.episodes_from_trajectories(trajs)


def test_forward_shapes():
    for arch, obs in (("lcbc", np.zeros((64, 64, 3), np.float32)),
                      ("rt1", np.zeros((6, 64, 64, 3), np.float32))):
        m = policies.make_policy(arch, np.random.default_rng(0), d=32, blocks=1)
        out = m(obs[None], np.zeros((1, 32))).data[0]
        assert out.shape == (3, 256)
        assert np.isfinite(out).all()


def test_history_length_mismatch():
    m = policies.make_policy("rt1", np.random.default_rng(0), d=32, blocks=1)
    with pytest.raises(ValueError, match="history length mismatch"):
        m(np.zeros((1, 4, 64, 64, 3), np.float32), np.zeros((1, 32)))


def test_unknown_arch():
    with pytest.raises(ValueError, match="unknown architecture"):
        policies.make_policy("cnnlstm", np.random.default_rng(0))


def test_bc_loss_uniform():
    logits = nn.Tensor(np.zeros((4, 3, 256), dtype=np.float32))
    targets = np.zeros((4, 3), dtype=np.int64)
    assert float(nn.cross_entropy(logits, targets).data) == pytest.approx(np.log(256.0), abs=1e-5)


def test_bc_loss_shape_mismatch():
    with pytest.raises(ValueError, match=r"logits of shape \(4, 3, 256\) do not match targets of shape \(4, 2\)"):
        nn.cross_entropy(nn.Tensor(np.zeros((4, 3, 256), np.float32)), np.zeros((4, 2), np.int64))


def test_greedy_invariant_to_constant_shift():
    m = policies.make_policy("lcbc", np.random.default_rng(0), d=32, blocks=1)
    obs = np.random.default_rng(1).random((64, 64, 3)).astype(np.float32)
    logits = m(obs[None], np.zeros((1, 32))).data[0]
    shifted = logits + 7.5
    assert np.array_equal(logits.argmax(-1), shifted.argmax(-1))


def test_train_policy_improves_and_deterministic(episodes):
    cfg = policies.BCConfig(steps=30, batch=8, seed=0, d=32, blocks=1)
    m1, log1 = policies.train_policy("lcbc", episodes, cfg)
    m2, log2 = policies.train_policy("lcbc", episodes, cfg)
    assert log1 == log2
    assert np.mean(log1[-5:]) < log1[0]


def test_train_policy_empty():
    with pytest.raises(ValueError, match="empty dataset"):
        policies.train_policy("lcbc", [], policies.BCConfig(steps=1))


def test_train_rt1_runs(episodes):
    cfg = policies.BCConfig(steps=5, batch=4, seed=0, d=32, blocks=1)
    m, log = policies.train_policy("rt1", episodes, cfg)
    assert len(log) == 5 and np.isfinite(log).all()


def test_codec_follows_the_bin_count(episodes, monkeypatch):
    # an odd bin count: heads, targets, labels and rollouts all follow data.N_BINS
    monkeypatch.setattr(data, "N_BINS", 9)
    cfg = policies.BCConfig(steps=1, batch=2, seed=0, d=32, blocks=1)
    pairs = [("drawer-open", 0), ("reach", 1)]
    for arch, obs in (("lcbc", np.zeros((1, 64, 64, 3), np.float32)),
                      ("rt1", np.zeros((1, 6, 64, 64, 3), np.float32))):
        m, log = policies.train_policy(arch, episodes, cfg)
        assert np.isfinite(log).all()
        assert policies.rollout_many(m, pairs, max_steps=2).shape == (2,)
        assert m(obs, np.zeros((1, 32))).shape == (1, 3, 9)
    traj = data.run_episode("drawer-open", 0, epsilon=0.1)
    packed = idm.pack_video_windows([traj])
    assert packed[1].max() < 9
    model, log = idm.train_idm(packed, idm.IdmConfig(steps=1, batch=2, d=32))
    assert np.isfinite(log).all()
    assert model(np.zeros((1, 12, 64, 64, 3), np.float32)).shape == (1, 11, 3, 9)
    acts = idm.label_video(model, data.subsample_trajectory(traj).frames)
    assert acts.shape == (35, 3) and np.isin(acts, data.undiscretize(np.arange(9))).all()
    assert idm.binwise_accuracy(model, packed).shape == (3,)
    scores = np.zeros((2, 3, 9), np.float32)
    scores[..., 4] = 1.0  # the middle of an odd bin count is the centre 0
    assert np.array_equal(data.decode_actions(scores), np.zeros((2, 3), np.float32))


def test_history_indices_padding():
    idx = policies._history_indices(2, 6, 3, 100)
    assert idx.tolist() == [0, 0, 0, 0, 0, 2]
    idx = policies._history_indices(50, 6, 3, 100)
    assert idx.tolist() == [35, 38, 41, 44, 47, 50]


class _NoopPolicy:
    arch = "lcbc"

    def __call__(self, obs, prompt):
        logits = np.zeros((obs.shape[0], 3, 256), dtype=np.float32)
        logits[:, :, 128] = 5.0  # zero displacement, open grip
        return nn.Tensor(logits)


@pytest.mark.parametrize("task_id", ["reach", "door-open", "window-close", "push"])
def test_noop_policy_rate_zero(task_id):
    rates = policies.rollout_eval(_NoopPolicy(), [task_id], episodes=5, seed=0)
    assert rates == {task_id: 0.0}


def test_noop_policy_rate_zero_all_tasks_in_one_batch():
    tasks = ["reach", "door-open", "window-close", "push"]
    rates = policies.rollout_eval(_NoopPolicy(), tasks, episodes=5, seed=0)
    assert rates == dict.fromkeys(tasks, 0.0)


def test_rollout_rate_reproducible():
    m = policies.make_policy("lcbc", np.random.default_rng(0), d=32, blocks=1)
    r1 = policies.rollout_eval(m, ["reach"], episodes=5, seed=2)
    r2 = policies.rollout_eval(m, ["reach"], episodes=5, seed=2)
    assert r1 == r2
    assert 0.0 <= r1["reach"] <= 1.0


def test_rt1_rollout_matches_frame_history(monkeypatch):
    # the embedding ring must hand the decoder the embeddings of the stride-3
    # history of raw frames (reset frame repeated at the start), and the
    # rollout must take the actions the model gives on that frame history
    m = policies.make_policy("rt1", np.random.default_rng(0), d=32, blocks=1)
    pairs = [("door-open", 0), ("push", 2)]
    calls, histories = [], []
    step, decode = env.step, m.decode

    def recording_step(state, action):
        out = step(state, action)
        calls.append((np.array(action), out[1], out[2]))
        return out

    def recording_decode(emb, prompt_emb):
        histories.append(emb.data.copy())
        return decode(emb, prompt_emb)

    monkeypatch.setattr(policies.env, "step", recording_step)
    monkeypatch.setattr(m, "decode", recording_decode)
    max_steps = 18  # past the ring's length, so old embeddings get evicted
    policies.rollout_many(m, pairs, max_steps=max_steps)
    monkeypatch.undo()

    seen = [[env.reset(tid, seed)[1]] for tid, seed in pairs]
    live = list(range(len(pairs)))
    prompt = np.stack([prompts.embed_prompt(prompts.expand_prompt(env.get_task(tid).description))
                       for tid, _ in pairs])
    pos = 0
    for t in range(max_steps):
        if not live:
            break
        idx = policies._history_indices(t, m.history, policies.HISTORY_STRIDE, t + 1)
        hist = np.stack([np.stack(seen[i])[idx] for i in live]).astype(np.float32) / 127.5 - 1.0
        emb = m.encoder(hist.reshape(-1, 64, 64, 3)).data.reshape(len(live), m.history, m.d)
        assert np.allclose(histories[t], emb, rtol=0.0, atol=1e-5), t
        want = data.undiscretize(m(hist, prompt[live]).data.argmax(axis=-1))
        for bi, i in enumerate(list(live)):
            action, frame, success = calls[pos]
            pos += 1
            assert np.array_equal(action, want[bi]), (t, i)
            seen[i].append(frame)
            if success:
                live.remove(i)
    assert pos == len(calls) > 0


class _ExpertPolicy:
    """Expert wired through the policy interface (oracle check)."""

    arch = "lcbc"

    def __init__(self):
        self.states = {}


def test_expert_as_policy_rate_one():
    # bypass learning entirely: drive rollouts with the scripted expert
    for task_id in ("drawer-open", "faucet-close"):
        wins = 0
        for e in range(5):
            state, _ = env.reset(task_id, 1000 + e)
            for _ in range(env.MAX_STEPS):
                state, done = env.step_state(state, env.expert_action(state, task_id))
                if done:
                    wins += 1
                    break
        assert wins == 5


def test_rollout_monotone_rate():
    done = np.array([True, False, True, False])
    rate = float(done.mean())
    done2 = np.append(done, True)
    assert float(done2.mean()) >= rate * len(done) / len(done2)
