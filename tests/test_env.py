import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimanip import data, env, pipeline, policies, prompts


def test_registry_shape():
    assert len(env.REGISTRY) == 16
    fams = {}
    for t in env.REGISTRY.values():
        fams.setdefault(t.family, []).append(t.fold)
        assert t.fold in (1, 2)
        assert t.description
    assert len(fams) == 8
    for family, folds in fams.items():
        assert sorted(folds) == [1, 2], family


def test_reset_deterministic():
    s1, f1 = env.reset("button-press", seed=7)
    s2, f2 = env.reset("button-press", seed=7)
    assert np.array_equal(f1, f2)
    assert np.array_equal(s1.gripper, s2.gripper)
    for k in s1.layout.positions:
        assert np.array_equal(s1.layout.positions[k], s2.layout.positions[k])
    assert s1.layout.scalars == s2.layout.scalars


def test_reset_seeds_differ():
    s1, _ = env.reset("door-close", seed=7)
    s2, _ = env.reset("door-close", seed=8)
    assert not np.array_equal(s1.layout.positions["hinge"], s2.layout.positions["hinge"])


def test_reset_unknown_task():
    with pytest.raises(ValueError, match="unknown task"):
        env.reset("frobnicate", seed=0)


def test_zero_action_moves_nothing():
    s, _ = env.reset("reach", seed=0)
    s2, _, _ = env.step(s, np.array([0.0, 0.0, -1.0]))
    assert np.array_equal(s2.gripper, s.gripper)
    assert s2.steps == s.steps + 1


def test_boundary_clamp():
    s, _ = env.reset("reach", seed=0)
    s.gripper = np.array([1.0, 0.5])
    s2, _, _ = env.step(s, np.array([1.0, 0.0, -1.0]))
    assert np.allclose(s2.gripper, [1.0, 0.5])


def test_action_out_of_range():
    s, _ = env.reset("reach", seed=0)
    with pytest.raises(ValueError, match="action out of range"):
        env.step(s, np.array([1.2, 0.0, 0.0]))


def test_episode_exhausted():
    s, _ = env.reset("reach", seed=0)
    s.steps = env.MAX_STEPS
    with pytest.raises(ValueError, match="episode exhausted"):
        env.step(s, np.array([0.0, 0.0, 0.0]))


@pytest.mark.parametrize("task_id", env.TASK_IDS)
def test_fresh_state_not_successful(task_id):
    s, _ = env.reset(task_id, seed=3)
    assert not env.success(s, task_id)


def test_button_full_depth_is_success():
    s, _ = env.reset("button-press", seed=0)
    s.layout.scalars["depth"] = env.CONFIG["button"]["depth_max"]
    assert env.success(s, "button-press")


@pytest.mark.parametrize("task_id", env.TASK_IDS)
def test_expert_succeeds_20_seeds(task_id):
    for seed in range(20):
        state, _ = env.reset(task_id, seed)
        done = False
        for _ in range(env.MAX_STEPS):
            state, done = env.step_state(state, env.expert_action(state, task_id))
            if done:
                break
        assert done, f"expert failed on {task_id} seed {seed}"
        assert state.steps <= env.MAX_STEPS


def test_expert_terminal_state_is_success():
    state, _ = env.reset("faucet-open", seed=5)
    for _ in range(env.MAX_STEPS):
        state, done = env.step_state(state, env.expert_action(state, "faucet-open"))
        if done:
            break
    assert env.success(state, "faucet-open")


def test_expert_deterministic():
    s, _ = env.reset("plate-slide", seed=1)
    rng = np.random.default_rng(0)
    a1 = env.scripted_expert(s, "plate-slide", 0.0, rng)
    a2 = env.scripted_expert(s, "plate-slide", 0.0, rng)
    assert np.array_equal(a1, a2)


def test_scripted_expert_epsilon_one_uniform():
    s, _ = env.reset("reach", seed=0)
    rng = np.random.default_rng(42)
    draws = np.stack([env.scripted_expert(s, "reach", 1.0, rng) for _ in range(10_000)])
    assert np.abs(draws.mean(axis=0)).max() < 0.05


def test_scripted_expert_epsilon_rate():
    s, _ = env.reset("reach", seed=0)
    expert = env.expert_action(s, "reach")
    rng = np.random.default_rng(7)
    n = 10_000
    non_expert = sum(
        not np.array_equal(env.scripted_expert(s, "reach", 0.1, rng), expert)
        for _ in range(n)
    )
    assert 0.08 <= non_expert / n <= 0.12


def test_invalid_epsilon():
    s, _ = env.reset("reach", seed=0)
    with pytest.raises(ValueError, match="invalid epsilon"):
        env.scripted_expert(s, "reach", 1.5, np.random.default_rng(0))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
                min_size=1, max_size=40),
       st.sampled_from(env.TASK_IDS))
def test_gripper_always_in_workspace(actions, task_id):
    state, _ = env.reset(task_id, seed=11)
    for a in actions:
        state, _ = env.step_state(state, np.asarray(a))
        assert np.all(state.gripper >= 0.0) and np.all(state.gripper <= 1.0)


def test_render_stateless():
    s, _ = env.reset("push-wall", seed=9)
    assert np.array_equal(env.render(s), env.render(s))


def test_step_determinism_bit_identical():
    out = []
    for _ in range(2):
        state, frame = env.reset("drawer-open", seed=4)
        frames = [frame]
        for _ in range(30):
            state, frame, _ = env.step(state, env.expert_action(state, "drawer-open"))
            frames.append(frame)
        out.append(np.stack(frames))
    assert np.array_equal(out[0], out[1])


def test_registry_export(tmp_path):
    path = tmp_path / "tasks.tsv"
    env.write_registry(path)
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].split("\t") == ["task_id", "family", "variant", "fold", "description"]
    assert len(lines) == 17
    for line in lines[1:]:
        tid, family, variant, fold, desc = line.split("\t")
        assert tid in env.REGISTRY
        assert fold in ("1", "2")


# sha256 prefixes of the exact bytes of one epsilon-0.1 expert episode (frames
# and actions) and the pose plan of its layout, per task, at seed 0. Any change
# to layout sampling, mechanics, goals, the expert or the renderer moves them.
_GOLDEN = {
    "button-press": "1127b577fd7a2318",
    "button-press-wall": "6dd744edda860b81",
    "reach": "2dc4ad64b6de74d0",
    "reach-wall": "676aa4566b4a0d8f",
    "push-wall": "a8cbfe9402aadd01",
    "push": "5849e7d4aa05b5fc",
    "door-close": "335168b5ecbece38",
    "door-open": "ded281921e292a01",
    "drawer-open": "204f9589a5d53239",
    "drawer-close": "f7dfa385a4095684",
    "faucet-open": "3a62c833e6ae2b03",
    "faucet-close": "2ee615d1a456aed2",
    "plate-slide": "03edbd37d32167af",
    "plate-slide-back": "02e470a6a39e0d20",
    "window-open": "ba41a430d434ec24",
    "window-close": "9f1a6251779a4267",
}


def test_expert_trajectories_match_golden():
    assert set(_GOLDEN) == set(env.TASK_IDS)
    for tid in env.TASK_IDS:
        h = hashlib.sha256()
        traj = data.run_episode(tid, 0, epsilon=0.1)
        h.update(traj.frames.tobytes())
        h.update(traj.actions.tobytes())
        poses = prompts.plan_pose(tid, env.sample_layout(tid, 0))
        h.update(poses.positions.tobytes())
        h.update(poses.closed.tobytes())
        assert h.hexdigest()[:16] == _GOLDEN[tid], tid


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------

def _reference_px(u):
    return int(np.clip(np.rint(u * env.RES), 0, env.RES - 1))


def _reference_disc(img, center, radius_px, color):
    """One `ogrid` disc per call: the renderer's disc before vectorization."""
    cx, cy = _reference_px(center[0]), _reference_px(center[1])
    r = int(radius_px)
    x0, x1 = max(0, cx - r), min(env.RES - 1, cx + r)
    y0, y1 = max(0, cy - r), min(env.RES - 1, cy + r)
    yy, xx = np.ogrid[y0:y1 + 1, x0:x1 + 1]
    mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius_px ** 2
    img[y0:y1 + 1, x0:x1 + 1][mask] = color


def _reference_segment(img, p0, p1, color):
    """Per-sample-point disc loop: the renderer's segment before vectorization."""
    n = max(2, int(np.linalg.norm(np.asarray(p1) - np.asarray(p0)) * env.RES * 1.5) + 1)
    for t in np.linspace(0.0, 1.0, n):
        q = (1 - t) * np.asarray(p0) + t * np.asarray(p1)
        _reference_disc(img, q, 1, color)


# workspace coordinates around and past the frame, plus exact half-pixel ties
_coord = st.one_of(st.floats(-0.2, 1.2), st.integers(-13, 76).map(lambda k: (k + 0.5) / env.RES))
_point = st.tuples(_coord, _coord)


@settings(max_examples=300, deadline=None)
@given(_point, _point, st.booleans(), st.sampled_from([1, 2, 2.6]), st.integers(0, 2**32 - 1))
def test_segment_and_disc_match_per_point_discs(p0, p1, zero_length, radius_px, bg_seed):
    if zero_length:
        p1 = p0
    p0, p1 = np.array(p0), np.array(p1)
    bg = np.random.default_rng(bg_seed).integers(0, 256, size=(env.RES, env.RES, 3), dtype=np.uint8)
    got, want = bg.copy(), bg.copy()
    env._segment(got, p0, p1, (1, 2, 3))  # segments are drawn 1 px wide
    _reference_segment(want, p0, p1, (1, 2, 3))
    assert np.array_equal(got, want)
    env._disc(got, p1, radius_px, (4, 5, 6))
    _reference_disc(want, p1, radius_px, (4, 5, 6))
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-3.0, 3.0), st.integers(-200, 200).map(lambda k: (k + 0.5) / env.RES)))
def test_px_rounds_half_to_even_and_clips(u):
    assert env._px(u) == _reference_px(u)
    assert env._px(np.float64(u)) == env._px(u)


# sha256 prefixes of the frames of two uniform-random-action episodes per task:
# one from the reset pose (rng seed 0; it reaches the frame edge) and one started
# on the handle (rng seed 1; it grabs and moves the part).
_RANDOM_GOLDEN = {
    "door-open": "fc9865c28754efc1",
    "door-close": "bd9594bc98318298",
    "faucet-close": "444103da6a977f51",
    "plate-slide": "4f4f471e2310f352",
}


def test_random_action_frames_match_golden():
    assert set(_RANDOM_GOLDEN) == {"door-open", "door-close", "faucet-close", "plate-slide"}
    for tid, want in _RANDOM_GOLDEN.items():
        h = hashlib.sha256()
        for rng_seed, on_handle in ((0, False), (1, True)):
            state, frame = env.reset(tid, 0)
            if on_handle:
                state.gripper = env.handle_point(tid, state.layout).copy()
                frame = env.render(state)
            h.update(frame.tobytes())
            rng = np.random.default_rng(rng_seed)
            for _ in range(60):
                state, frame, _ = env.step(state, rng.uniform(-1.0, 1.0, size=3))
                h.update(frame.tobytes())
        assert h.hexdigest()[:16] == want, tid


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

# sha256 prefixes of the three kinematic replays of one epsilon-0.1 expert
# episode per task at seed 0: the gripper pose track, the grab-wait mask, and
# whether its bridged labels and zero actions solve the layout when replayed.
_REPLAY_GOLDEN = {
    "button-press": "d63404ac526f4688",
    "button-press-wall": "b2588e75bf357874",
    "reach": "d9912ab017134e54",
    "reach-wall": "4745cae055efbb19",
    "push-wall": "f782b9f4290ee781",
    "push": "b85bc3aba32d0f4f",
    "door-close": "b9ae3195386f9e2f",
    "door-open": "4728c03e56d7177a",
    "drawer-open": "e1a42d9a9f976578",
    "drawer-close": "d37880fa4348eb19",
    "faucet-open": "9a08e7dbde7e5db3",
    "faucet-close": "904e9bffe2ef9fb1",
    "plate-slide": "ea5825b4337d3f2d",
    "plate-slide-back": "44285b14951ad87f",
    "window-open": "92bb91ffcb72f0dc",
    "window-close": "455c9ec8654efd83",
}


def _replays(traj):
    """The pose track, grab-wait mask and label/zero-action replay verdicts of `traj`."""
    positions, closed = data.gripper_pose_track(traj)
    labels = data.subsample_trajectory(traj).actions
    return (positions, closed, policies._grab_wait_mask(traj),
            pipeline.replay_actions(traj.task_id, traj.layout, labels),
            pipeline.replay_actions(traj.task_id, traj.layout, np.zeros_like(labels)))


def test_replays_match_golden():
    assert set(_REPLAY_GOLDEN) == set(env.TASK_IDS)
    for tid in env.TASK_IDS:
        positions, closed, mask, ok, ok_zero = _replays(data.run_episode(tid, 0, epsilon=0.1))
        h = hashlib.sha256()
        h.update(positions.tobytes())
        h.update(closed.tobytes())
        h.update(mask.tobytes())
        h.update(bytes([ok, ok_zero]))
        assert h.hexdigest()[:16] == _REPLAY_GOLDEN[tid], tid


def test_replays_render_nothing(monkeypatch):
    traj = data.run_episode("door-open", 0, epsilon=0.1)

    def render(state):
        raise AssertionError("a replay rendered a frame")

    monkeypatch.setattr(env, "render", render)
    _replays(traj)
