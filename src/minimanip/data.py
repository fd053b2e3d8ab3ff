"""Expert data collection, episode files, preprocessing, and discretization.

An episode is one `storage` container of kind "episode": the uint8 `frames`
and float32 `actions` arrays, with task id, seed, epsilon, success and the
workspace layout in its JSON metadata. A dataset is a directory of such
files, one per episode, named `<task_id>_<seed>.episode`.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import env, storage

SKIP = env.SIM_STEPS_PER_FRAME  # frame subsampling stride for video tensors
VIDEO_FRAMES = 36   # fixed video length for the diffusion model
N_BINS = 256
WINDOW = 12         # default temporal window (frames) for action inference
EPISODE_SUFFIX = ".episode"


@dataclass
class Trajectory:
    task_id: str
    seed: int
    epsilon: float
    frames: np.ndarray      # (L+1, 64, 64, 3) uint8
    actions: np.ndarray     # (L, 3) float32
    success: bool
    layout: env.WorkspaceLayout

    def __post_init__(self):
        if len(self.frames) != len(self.actions) + 1:
            raise ValueError("trajectory needs len(frames) == len(actions) + 1")


@dataclass
class FoldSplit:
    fold: int
    few_shot: tuple
    zero_shot: tuple


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------

def run_episode(task, seed, epsilon, max_steps=env.MAX_STEPS):
    """Roll the scripted expert once; truncates at first success."""
    task = env.get_task(task)
    state, frame = env.reset(task, seed)
    layout0 = state.layout.copy()
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, env._hash64(task.task_id), 1])
    frames, actions = [frame], []
    success = False
    for _ in range(max_steps):
        a = env.scripted_expert(state, task, epsilon, rng)
        state, frame, success = env.step(state, a)
        frames.append(frame)
        actions.append(np.asarray(a, dtype=np.float32))
        if success:
            break
    return Trajectory(
        task_id=task.task_id, seed=int(seed), epsilon=float(epsilon),
        frames=np.stack(frames), actions=np.asarray(actions, dtype=np.float32),
        success=success, layout=layout0,
    )


def collect(task, n_episodes, epsilon, max_steps=env.MAX_STEPS, seed=0):
    """Collect `n_episodes` successful expert episodes, resampling failures.

    Attempt e uses seed+e; failed episodes are discarded and fresh seeds drawn
    until the quota is met. Raises after 10x the quota in attempts, which
    signals a broken expert or success threshold rather than bad luck.
    """
    task = env.get_task(task)
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("invalid epsilon")
    out, attempt = [], 0
    while len(out) < n_episodes:
        if attempt >= 10 * n_episodes:
            raise RuntimeError(f"expert failure: {len(out)}/{n_episodes} successes in {attempt} attempts")
        traj = run_episode(task, seed + attempt, epsilon, max_steps)
        attempt += 1
        if traj.success:
            out.append(traj)
    return out


# ---------------------------------------------------------------------------
# Episode files
# ---------------------------------------------------------------------------

def save_trajectory(traj, path):
    layout = traj.layout
    storage.save_arrays(path, {"frames": traj.frames, "actions": traj.actions}, {
        "kind": "episode", "task_id": traj.task_id, "seed": int(traj.seed),
        "epsilon": float(traj.epsilon), "success": bool(traj.success),
        "layout": {"seed": int(layout.seed),
                   "positions": {k: [float(x) for x in v] for k, v in layout.positions.items()},
                   "scalars": {k: float(v) for k, v in layout.scalars.items()}},
    })


def load_trajectory(path):
    arrays, meta = storage.load_arrays(path, "episode")
    layout = meta["layout"]
    return Trajectory(
        task_id=meta["task_id"], seed=meta["seed"], epsilon=meta["epsilon"],
        frames=arrays["frames"], actions=arrays["actions"], success=meta["success"],
        layout=env.WorkspaceLayout(
            positions={k: np.array(v) for k, v in layout["positions"].items()},
            scalars=layout["scalars"], seed=layout["seed"]),
    )


def save_dataset(trajs, root):
    os.makedirs(root, exist_ok=True)
    for t in trajs:
        save_trajectory(t, os.path.join(root, f"{t.task_id}_{t.seed:08d}{EPISODE_SUFFIX}"))


def load_dataset(root, task_ids=None):
    out = []
    for name in sorted(os.listdir(root)):
        if name.endswith(EPISODE_SUFFIX):
            t = load_trajectory(os.path.join(root, name))
            if task_ids is None or t.task_id in task_ids:
                out.append(t)
    return out


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def subsample_frames(traj):
    """Fixed-length video tensor: take every SKIP-th frame up to VIDEO_FRAMES, pad by repeating."""
    frames = traj.frames if isinstance(traj, Trajectory) else np.asarray(traj)
    if len(frames) == 0:
        raise ValueError("empty trajectory")
    picked = frames[::SKIP][:VIDEO_FRAMES]
    if len(picked) < VIDEO_FRAMES:
        pad = np.repeat(picked[-1:], VIDEO_FRAMES - len(picked), axis=0)
        picked = np.concatenate([picked, pad], axis=0)
    return picked


def bridge_actions(actions):
    """Per-subsampled-step actions: summed displacement, end-of-group grip, zero padding.

    Summing the displacement commands of SKIP consecutive sim steps gives the
    net motion between subsampled frames (the expert's per-step magnitude cap
    keeps sums inside [-1, 1]); replaying the result as SKIP steps of
    1/SKIP magnitude reproduces that motion exactly. Returns one action per
    transition of a VIDEO_FRAMES-frame video.
    """
    actions = np.asarray(actions, dtype=np.float32)
    out = np.zeros((VIDEO_FRAMES - 1, 3), dtype=np.float32)
    n_groups = (len(actions) + SKIP - 1) // SKIP
    for t in range(min(VIDEO_FRAMES - 1, n_groups)):
        # the final group may be partial (episodes truncate at success); its
        # sum still encodes the remaining net displacement
        chunk = actions[t * SKIP:(t + 1) * SKIP]
        out[t, :2] = np.clip(chunk[:, :2].sum(axis=0), -1.0, 1.0)
        # grip: state at the group's end, which is what the next frame shows
        out[t, 2] = chunk[-1, 2]
    return out


def subsample_trajectory(traj):
    """Trajectory at the video frame rate: padded frames + bridged actions."""
    return Trajectory(
        task_id=traj.task_id, seed=traj.seed, epsilon=traj.epsilon,
        frames=subsample_frames(traj),
        actions=bridge_actions(traj.actions),
        success=traj.success, layout=traj.layout,
    )


_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float32)


def edge_extract_video(frames):
    """Grayscale Sobel gradient magnitude of every frame (N, H, W, 3), scaled to [0, 255], 3 channels."""
    f = np.asarray(frames, dtype=np.float32)
    gray = 0.299 * f[..., 0] + 0.587 * f[..., 1] + 0.114 * f[..., 2]
    p = np.pad(gray, ((0, 0), (1, 1), (1, 1)), mode="edge")
    h, w = gray.shape[1:]
    gx = np.zeros_like(gray)
    gy = np.zeros_like(gray)
    for di in range(3):
        for dj in range(3):
            k = _SOBEL_X[di, dj]
            if k:
                gx += k * p[:, di:di + h, dj:dj + w]
            k = _SOBEL_X[dj, di]
            if k:
                gy += k * p[:, di:di + h, dj:dj + w]
    mag = np.sqrt(gx * gx + gy * gy) / 4.0  # 4*255 is the max per-axis response
    out = np.clip(np.rint(mag), 0, 255).astype(np.uint8)
    return np.repeat(out[..., None], 3, axis=-1)


def inject_noise(frames, sigma, rng):
    """Pixels plus per-channel Gaussian noise, clamped to [0, 255], as float32.

    The output is not rounded, so it keeps sub-pixel noise. With sigma 0 it
    is a float32 copy of the input and nothing is drawn from rng.
    """
    if sigma < 0:
        raise ValueError("invalid sigma")
    out = np.array(frames, dtype=np.float32)
    if sigma > 0:
        out += rng.normal(0.0, sigma, size=out.shape).astype(np.float32)
        np.clip(out, 0.0, 255.0, out=out)
    return out


def to_unit(frames):
    """uint8 pixels -> float32 in [-1, 1]."""
    return np.asarray(frames, dtype=np.float32) / 127.5 - 1.0


def from_unit(x):
    """float in [-1, 1] -> uint8 pixels."""
    return np.clip(np.rint((np.asarray(x) + 1.0) * 127.5), 0, 255).astype(np.uint8)


def gripper_pose_track(traj):
    """Per-frame gripper (position, closed) via deterministic replay."""
    states = list(env.replay_states(traj.task_id, traj.layout, traj.actions))
    return np.asarray([s.gripper for s in states]), np.asarray([s.closed for s in states], dtype=bool)


def subsampled_pose_track(traj):
    """Pose track at the video frame rate, padded like subsample_frames."""
    positions, closed = gripper_pose_track(traj)
    return subsample_frames(positions), subsample_frames(closed)


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

def discretize(a):
    """Per-dimension bin index: floor((x+1)/2 * N_BINS), clamped."""
    a = np.asarray(a, dtype=np.float64)
    if np.any(np.abs(a) > 1.0 + 1e-9):
        raise ValueError("action out of range")
    bins = np.floor((a + 1.0) * (N_BINS / 2.0)).astype(np.int64)
    return np.clip(bins, 0, N_BINS - 1)


def undiscretize(d):
    """Bin centers: -1 + (bin + 0.5) * 2/N_BINS."""
    d = np.asarray(d, dtype=np.int64)
    if np.any(d < 0) or np.any(d >= N_BINS):
        raise ValueError("bin index out of range")
    return (-1.0 + (d + 0.5) * (2.0 / N_BINS)).astype(np.float32)


def decode_actions(scores):
    """Greedy decode: bin scores (..., 3, N_BINS) -> each top bin's centre (..., 3), ties low."""
    return undiscretize(scores.argmax(axis=-1))


# ---------------------------------------------------------------------------
# Fold split
# ---------------------------------------------------------------------------

def fold_split(fold):
    """Families contribute their fold-k variant to the few-shot side of fold k."""
    if fold not in (1, 2):
        raise ValueError("invalid fold")
    few = tuple(t.task_id for t in env.REGISTRY.values() if t.fold == fold)
    zero = tuple(t.task_id for t in env.REGISTRY.values() if t.fold != fold)
    return FoldSplit(fold=fold, few_shot=few, zero_shot=zero)
