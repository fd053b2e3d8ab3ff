"""Window-based inverse dynamics: categorical action decoding from frames.

Frames are edge-extracted (plus Gaussian noise at train time), split into
8x8 patches, encoded per frame by a small attention encoder, then a
bidirectional temporal encoder over the window produces per-transition
logits of 3 dimensions x 256 bins.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data, nn

PATCH = 8
N_PATCH = (64 // PATCH) ** 2
N_CHAN = 5  # RGB + two coordinate planes


def _coord_planes():
    u = np.linspace(-1.0, 1.0, 64, dtype=np.float32)
    return np.stack(np.meshgrid(u, u, indexing="xy"), axis=-1)  # (64, 64, 2)


_COORDS = _coord_planes()


def append_coords(frames):
    """Tensor (N, 64, 64, C) -> (N, 64, 64, C+2) with coordinate planes."""
    n = frames.shape[0]
    coords = nn.Tensor(np.broadcast_to(_COORDS, (n,) + _COORDS.shape).astype(frames.dtype, copy=False))
    return nn.concat([frames, coords], axis=-1)


class PatchStem(nn.Module):
    """Conv pyramid 64 -> 8 producing the 8x8 grid of patch tokens."""

    def __init__(self, d, rng, dtype=np.float32):
        self.c1 = nn.Conv2d(N_CHAN, 16, rng, stride=2, dtype=dtype)
        self.c2 = nn.Conv2d(16, 32, rng, stride=2, dtype=dtype)
        self.c3 = nn.Conv2d(32, 48, rng, stride=2, dtype=dtype)
        self.embed = nn.Linear(48, d, rng, dtype=dtype)
        self.pos = nn.Param((0.3 * rng.normal(size=(N_PATCH, d))).astype(dtype))

    def __call__(self, frames):
        """frames (N, 64, 64, 3) in [-1,1] -> tokens (N, 64, d)."""
        x = append_coords(frames)
        h = nn.relu(self.c1(x))
        h = nn.relu(self.c2(h))
        h = nn.relu(self.c3(h))
        n = h.shape[0]
        return self.embed(h.reshape(n, N_PATCH, 48)) + self.pos


class FrameEncoder(nn.Module):
    """Patch tokens -> attention block(s) -> pooled per-frame embedding."""

    def __init__(self, d, rng, blocks=1, dtype=np.float32):
        self.stem = PatchStem(d, rng, dtype=dtype)
        self.blocks = [nn.TransformerBlock(d, rng, dtype=dtype) for _ in range(blocks)]

    def __call__(self, frames):
        """frames (N, 64, 64, 3), Tensor or ndarray -> (N, d)."""
        if isinstance(frames, np.ndarray):
            frames = nn.Tensor(frames)
        h = self.stem(frames)
        for blk in self.blocks:
            h = blk(h)
        return nn.mean(h, axis=1)


class ActionDecoder(nn.Module):
    """Bidirectional temporal encoder + per-transition bin heads."""

    def __init__(self, rng=None, d=64, window=data.WINDOW, frame_blocks=1,
                 temporal_blocks=2, dtype=np.float32):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.d = d
        self.window = window
        self.encoder = FrameEncoder(d, rng, blocks=frame_blocks, dtype=dtype)
        self.tpos = nn.Param((0.3 * rng.normal(size=(window, d))).astype(dtype))
        self.temporal = [nn.TransformerBlock(d, rng, dtype=dtype) for _ in range(temporal_blocks)]
        self.head = nn.Linear(2 * d, 3 * 256, rng, dtype=dtype)

    def decode(self, emb):
        """Encoder embeddings (B, w, d) of w consecutive frames -> logits (B, w-1, 3, 256)."""
        b, w = emb.shape[0], emb.shape[1]
        if w != self.window:
            raise ValueError("window size mismatch")
        h = emb + self.tpos
        for blk in self.temporal:
            h = blk(h)
        pair = nn.concat([nn.take(h, slice(0, w - 1)), nn.take(h, slice(1, w))], axis=2)
        logits = self.head(pair)
        return logits.reshape(b, w - 1, 3, 256)

    def __call__(self, frames):
        """frames (B, w, 64, 64, 3) float in [-1,1] -> logits (B, w-1, 3, 256)."""
        b, w = frames.shape[0], frames.shape[1]
        emb = self.encoder(frames.reshape(b * w, 64, 64, 3)).reshape(b, w, self.d)
        return self.decode(emb)


def idm_loss(logits, targets):
    """Mean negative log-likelihood of the target bins."""
    logits_t = logits if isinstance(logits, nn.Tensor) else nn.Tensor(np.asarray(logits))
    t = np.asarray(targets)
    if logits_t.shape[:-2] != t.shape[:-1] or logits_t.shape[-2] != t.shape[-1]:
        raise ValueError("target length mismatch")
    return nn.cross_entropy(logits_t, t)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class IdmConfig:
    steps: int = 1500
    batch: int = 16
    lr: float = 1e-3
    seed: int = 0
    d: int = 64
    window: int = data.WINDOW
    noise_sigma: float = 10.0
    clip: float = 1.0


def pack_video_windows(trajectories, window=data.WINDOW):
    """Edge-extract subsampled videos once; index all stride-1 windows.

    Returns (edge videos u8 (N, 36, 64, 64, 3), bin targets (N, 35, 3),
    window index pairs (video, start)).
    """
    vids, targets, index = [], [], []
    for traj in trajectories:
        sub = data.subsample_trajectory(traj)
        vids.append(data.edge_extract_video(sub.frames))
        targets.append(data.discretize(sub.actions))
        vi = len(vids) - 1
        for k in range(len(sub.frames) - window + 1):
            index.append((vi, k))
    return np.stack(vids), np.stack(targets), np.asarray(index)


def train_idm(dataset, config=None, hook=None):
    """Train on WindowSamples or on a packed (videos, targets, index) triple."""
    cfg = config or IdmConfig()
    if isinstance(dataset, tuple):
        vids, targets, index = dataset
    else:
        if not dataset:
            raise ValueError("empty dataset")
        frames = np.stack([w.frames for w in dataset])
        vids = np.stack([data.edge_extract_video(f) for f in frames])
        targets = np.stack([data.discretize(w.actions) for w in dataset])
        index = np.asarray([(i, 0) for i in range(len(dataset))])
    if len(index) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    model = ActionDecoder(np.random.default_rng(cfg.seed + 1), d=cfg.d, window=cfg.window)
    opt = nn.Adam(model.params(), lr=cfg.lr, clip=cfg.clip)
    w = cfg.window
    log = []
    for it in range(cfg.steps):
        pick = rng.integers(0, len(index), size=cfg.batch)
        batch_f = np.empty((cfg.batch, w, 64, 64, 3), dtype=np.float32)
        batch_t = np.empty((cfg.batch, w - 1, 3), dtype=np.int64)
        for bi, pi in enumerate(pick):
            vi, k = index[pi]
            batch_f[bi] = vids[vi, k:k + w]
            batch_t[bi] = targets[vi, k:k + w - 1]
        if cfg.noise_sigma > 0:
            batch_f += rng.normal(0.0, cfg.noise_sigma, size=batch_f.shape).astype(np.float32)
            np.clip(batch_f, 0.0, 255.0, out=batch_f)
        batch_f = batch_f / 127.5 - 1.0
        logits = model(batch_f)
        loss = idm_loss(logits, batch_t)
        val = float(loss.data)
        if not np.isfinite(val):
            raise RuntimeError(f"numerical divergence at step {it}")
        model.zero_grad()
        loss.backward()
        opt.step()
        log.append(val)
        if hook is not None:
            hook(it, val)
    return model, log


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def label_video(model, video, window=None):
    """Action sequence for a 36-frame video via overlapping-window averaging.

    Each frame is encoded once and every window is decoded from the shared
    embeddings. Normalized per-bin probabilities are averaged across every
    window that covers a transition; ties break toward the lower bin index.
    """
    w = window or model.window
    frames = np.asarray(video)
    if frames.ndim != 4 or len(frames) < w:
        raise ValueError("video too short")
    n = len(frames)
    edge = data.edge_extract_video(frames).astype(np.float32) / 127.5 - 1.0
    starts = np.arange(n - w + 1)
    with nn.no_grad():
        emb = model.encoder(edge).data  # (n, d)
        windows = nn.Tensor(emb[starts[:, None] + np.arange(w)])
        logits = model.decode(windows).data  # (n_windows, w-1, 3, 256)
    z = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(axis=-1, keepdims=True)
    acc = np.zeros((n - 1, 3, 256))
    count = np.zeros(n - 1)
    for wi, k in enumerate(starts):
        acc[k:k + w - 1] += probs[wi]
        count[k:k + w - 1] += 1
    acc /= count[:, None, None]
    bins = acc.argmax(axis=-1)
    return data.undiscretize(bins)


def binwise_accuracy(model, windows, tol=1):
    """Per-dimension fraction of transitions predicted within +/-tol bins."""
    if not windows:
        raise ValueError("empty dataset")
    frames = np.stack([w.frames for w in windows])
    edge = np.stack([data.edge_extract_video(f) for f in frames]).astype(np.float32)
    edge = edge / 127.5 - 1.0
    hits = np.zeros(3)
    total = 0
    bs = 32
    for lo in range(0, len(windows), bs):
        chunk = edge[lo:lo + bs]
        targets = np.stack([data.discretize(w.actions) for w in windows[lo:lo + bs]])
        with nn.no_grad():
            logits = model(chunk).data
        pred = logits.argmax(axis=-1)
        hits += (np.abs(pred - targets) <= tol).sum(axis=(0, 1))
        total += targets.shape[0] * targets.shape[1]
    return hits / total


# ---------------------------------------------------------------------------
# Generalization study
# ---------------------------------------------------------------------------

def generalization_study(family_counts, traj_counts, seed=0, steps=None,
                         eval_trajs=4, collect_fn=None):
    """Train one model per (families, trajectories-per-task) cell.

    Reports few-shot and zero-shot +/-1-bin accuracy per cell. Few-shot
    evaluation uses held-out episodes of the training variants; zero-shot
    uses the untrained fold's variants across all families.
    """
    from . import env
    collect_fn = collect_fn or (lambda tid, n, s: data.collect(tid, n_episodes=n, seed=s))
    split = data.fold_split(1)
    families = [env.get_task(t).family for t in split.few_shot]
    rows = []
    for fc in family_counts:
        if fc > len(split.few_shot):
            raise ValueError("insufficient data: not enough families")
        train_tasks = split.few_shot[:fc]
        for tc in traj_counts:
            trajs = []
            for tid in train_tasks:
                trajs.extend(collect_fn(tid, tc, seed))
            packed = pack_video_windows(trajs)
            cfg = IdmConfig(seed=seed, steps=steps or IdmConfig.steps)
            model, _ = train_idm(packed, cfg)
            few_windows, zero_windows = [], []
            for tid in train_tasks:
                for t in (data.run_episode(tid, 10_000 + seed + i, epsilon=0.0) for i in range(eval_trajs)):
                    few_windows.extend(data.make_windows(data.subsample_trajectory(t)))
            for tid in split.zero_shot:
                for t in (data.run_episode(tid, 20_000 + seed + i, epsilon=0.0) for i in range(eval_trajs)):
                    zero_windows.extend(data.make_windows(data.subsample_trajectory(t)))
            few = binwise_accuracy(model, few_windows).mean()
            zero = binwise_accuracy(model, zero_windows).mean()
            rows.append({"families": fc, "traj_per_task": tc,
                         "few_shot_acc": float(few), "zero_shot_acc": float(zero)})
    return rows
