"""Behavior-cloned manipulation policies and closed-loop evaluation.

Two architectures: a single-frame policy that attends over patch tokens plus
a prompt token, and a history-conditioned policy that runs a causal decoder
over per-frame embeddings of the last k frames (stride 3, matching the
subsampled rate of generated demonstrations). Both emit 3 x `data.N_BINS`
bin logits through `ActionHead`, and rollouts act on `data.decode_actions`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data, env, nn, prompts
from .inverse_dynamics import ActionHead, FrameEncoder, PatchStem

HISTORY = 6
HISTORY_STRIDE = data.SKIP  # one history frame per video frame
LR, LR_FINAL = 1e-3, 2e-4   # cosine-decayed from LR to LR_FINAL over training
AUG_NOISE = 0.04            # Gaussian noise in [-1,1] frame units
AUG_SHIFT = 6               # random frame shift (px); actions depend only
                            # on relative geometry, so labels are preserved


class SingleFramePolicy(nn.Module):
    """Patch tokens + prompt token -> attention encoder -> bin logits."""

    arch = "lcbc"

    def __init__(self, rng, d=64, blocks=2):
        self.d = d
        self.stem = PatchStem(d, rng)
        self.prompt_fc = nn.Linear(prompts.EMBED_DIM, d, rng)
        self.blocks = [nn.TransformerBlock(d, rng) for _ in range(blocks)]
        self.head = ActionHead(d, rng)

    def __call__(self, frames, prompt_emb):
        """frames (B, 64, 64, 3) in [-1,1]; prompt_emb (B, 32) -> (B, 3, N_BINS)."""
        b = frames.shape[0]
        tokens = self.stem(frames)
        ptok = nn.Tensor(np.asarray(prompt_emb, dtype=self.prompt_fc.w.dtype))
        h = nn.concat([self.prompt_fc(ptok).reshape(b, 1, self.d), tokens], axis=1)
        for blk in self.blocks:
            h = blk(h)
        pooled = nn.take(h, 0)  # the prompt token acts as a task-conditioned query
        return self.head(pooled)


class HistoryPolicy(nn.Module):
    """Per-frame embeddings of the last k frames -> causal decoder -> logits."""

    arch = "rt1"

    def __init__(self, rng, d=64, blocks=2, history=HISTORY):
        self.d = d
        self.history = history
        self.encoder = FrameEncoder(d, rng)
        self.prompt_fc = nn.Linear(prompts.EMBED_DIM, d, rng)
        self.tpos = nn.Param((0.3 * rng.normal(size=(history + 1, d))).astype(np.float32))
        self.blocks = [nn.TransformerBlock(d, rng, causal=True) for _ in range(blocks)]
        self.head = ActionHead(d, rng)

    def decode(self, emb, prompt_emb):
        """Encoder embeddings (B, k, d) of the last k frames, oldest first -> (B, 3, N_BINS)."""
        b, k = emb.shape[0], emb.shape[1]
        if k != self.history:
            raise ValueError("history length mismatch")
        ptok = nn.Tensor(np.asarray(prompt_emb, dtype=self.prompt_fc.w.dtype))
        h = nn.concat([self.prompt_fc(ptok).reshape(b, 1, self.d), emb], axis=1) + self.tpos
        for blk in self.blocks:
            h = blk(h)
        return self.head(nn.take(h, -1))

    def __call__(self, frames, prompt_emb):
        """frames (B, k, 64, 64, 3) oldest-first in [-1,1] -> (B, 3, N_BINS)."""
        b, k = frames.shape[0], frames.shape[1]
        emb = self.encoder(frames.reshape(b * k, 64, 64, 3)).reshape(b, k, self.d)
        return self.decode(emb, prompt_emb)


def make_policy(arch, rng, **kw):
    if arch == "lcbc":
        return SingleFramePolicy(rng, **kw)
    if arch == "rt1":
        return HistoryPolicy(rng, **kw)
    raise ValueError(f"unknown architecture: {arch!r}")


# ---------------------------------------------------------------------------
# Training data
# ---------------------------------------------------------------------------

@dataclass
class BCEpisode:
    """Frames plus per-frame continuous actions at the simulator rate.

    history_stride is the frame spacing used for history conditioning: 3 for
    simulator-rate episodes, 1 for subsampled generated demonstrations.
    """
    task_id: str
    frames: np.ndarray          # (T+1, 64, 64, 3) uint8
    actions: np.ndarray         # (T, 3) float32
    history_stride: int = HISTORY_STRIDE
    skip_mask: np.ndarray = None  # optional per-step exclusions


def _grab_wait_mask(traj):
    """Steps where the expert idled open at the handle waiting for a grab
    boundary; these are labeling-alignment artifacts, not behavior to clone."""
    mask = np.zeros(len(traj.actions), dtype=bool)
    fam = env.get_task(traj.task_id).family
    # zip draws each action before the state it acts on, so the replay stops
    # before stepping the last action, whose resulting state is never read
    states = env.replay_states(traj.task_id, traj.layout, traj.actions)
    for i, (a, state) in enumerate(zip(traj.actions, states)):
        if fam != "reach" and np.all(a[:2] == 0.0) and a[2] <= 0.0 and not state.closed:
            d = np.linalg.norm(state.gripper - env.handle_point(traj.task_id, state.layout))
            mask[i] = d <= env.NEAR_TOL
    return mask


def episodes_from_trajectories(trajs):
    return [BCEpisode(t.task_id, t.frames, t.actions, skip_mask=_grab_wait_mask(t))
            for t in trajs]


def _history_indices(t, k, stride, length):
    idx = t - stride * np.arange(k - 1, -1, -1)
    return np.clip(idx, 0, length - 1)


@dataclass
class BCConfig:
    steps: int
    batch: int = 32
    seed: int = 0
    d: int = 64
    blocks: int = 2


def train_policy(arch, episodes, cfg, hook=None):
    """Behavior cloning on (frame, action) pairs from the given episodes."""
    if not episodes:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    model = make_policy(arch, np.random.default_rng(cfg.seed + 1), d=cfg.d, blocks=cfg.blocks)
    opt = nn.Adam(model.params(), lr=LR, clip=1.0)

    pairs = [(ei, t) for ei, ep in enumerate(episodes) for t in range(len(ep.actions))
             if ep.skip_mask is None or not ep.skip_mask[t]]
    pairs = np.asarray(pairs)
    targets_all = [data.discretize(ep.actions) for ep in episodes]
    prompts_all = [prompts.task_embedding(ep.task_id) for ep in episodes]
    log = []
    k = HISTORY
    for it in range(cfg.steps):
        pick = pairs[rng.integers(0, len(pairs), size=cfg.batch)]
        prompt = np.stack([prompts_all[ei] for ei, _ in pick])
        tgt = np.stack([targets_all[ei][t] for ei, t in pick])
        if arch == "lcbc":
            obs = np.stack([episodes[ei].frames[t] for ei, t in pick])
        else:
            obs = np.empty((cfg.batch, k, 64, 64, 3), dtype=np.float32)
            for bi, (ei, t) in enumerate(pick):
                ep = episodes[ei]
                idx = _history_indices(t, k, ep.history_stride, len(ep.frames))
                obs[bi] = ep.frames[idx]
        obs = data.to_unit(obs)
        shifts = rng.integers(-AUG_SHIFT, AUG_SHIFT + 1, size=(cfg.batch, 2))
        for bi in range(cfg.batch):
            obs[bi] = np.roll(obs[bi], tuple(shifts[bi]), axis=(-3, -2))
        obs += rng.normal(0.0, AUG_NOISE, size=obs.shape).astype(np.float32)
        logits = model(obs, prompt)
        val = opt.minimize(nn.cross_entropy(logits, tgt), it)
        opt.lr = LR_FINAL + 0.5 * (LR - LR_FINAL) * (1 + np.cos(np.pi * (it + 1) / cfg.steps))
        log.append(val)
        if hook is not None:
            hook(it, val)
    return model, log


# ---------------------------------------------------------------------------
# Closed-loop evaluation
# ---------------------------------------------------------------------------

def rollout_many(model, task_seed_pairs, max_steps=env.MAX_STEPS):
    """Greedy closed-loop rollouts, stepped in lockstep across episodes.

    Returns a success flag per (task, seed) pair.
    """
    n = len(task_seed_pairs)
    prompt_embs = np.stack([prompts.task_embedding(tid) for tid, _ in task_seed_pairs])
    states, frames = [], []
    for tid, seed in task_seed_pairs:
        s, f = env.reset(tid, seed)
        states.append(s)
        frames.append(f)
    done = np.zeros(n, dtype=bool)
    for step in range(max_steps):
        live = np.flatnonzero(~done)
        if len(live) == 0:
            break
        obs = data.to_unit(np.stack([frames[i] for i in live]))
        with nn.no_grad():
            if model.arch == "lcbc":
                logits = model(obs, prompt_embs[live]).data
            else:
                emb = model.encoder(obs).data
                if step == 0:  # frame t's embedding stays in slot t % span until frame t + span
                    span = HISTORY_STRIDE * (model.history - 1) + 1
                    ring = np.empty((n, span) + emb.shape[1:], dtype=emb.dtype)
                ring[live, step % span] = emb
                slots = _history_indices(step, model.history, HISTORY_STRIDE, step + 1) % span
                hist = ring[live[:, None], slots]
                logits = model.decode(nn.Tensor(hist), prompt_embs[live]).data
        acts = data.decode_actions(logits)
        for bi, i in enumerate(live):
            s, f, suc = env.step(states[i], acts[bi])
            states[i], frames[i] = s, f
            if suc:
                done[i] = True
    return done


def rollout_eval(model, tasks, episodes, seed=0):
    """Accomplishment rate per task over `episodes` greedy closed-loop rollouts each.

    Every episode of every task runs in one lockstep `rollout_many` batch;
    episode e of each task starts from layout seed seed * 100_003 + e.
    Returns {task_id: rate}.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    tids = [env.get_task(t).task_id for t in tasks]
    done = rollout_many(model, [(tid, seed * 100_003 + e) for tid in tids for e in range(episodes)])
    return dict(zip(tids, done.reshape(len(tids), episodes).mean(axis=1).tolist()))
