"""Window-based inverse dynamics: categorical action decoding from frames.

Frames are edge-extracted (plus Gaussian noise at train time), split into
8x8 patches, encoded per frame by a small attention encoder, then a
bidirectional temporal encoder over the window produces per-transition
logits of 3 dimensions x `data.N_BINS` bins through `ActionHead`, the one
action-bin head (policies use it too); `data.decode_actions` decodes them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data, nn

PATCH = 8
N_PATCH = (64 // PATCH) ** 2
N_CHAN = 5  # c1's input channels: RGB, then two coordinate planes (they enter as a bias map)


def _coord_planes():
    u = np.linspace(-1.0, 1.0, 64, dtype=np.float32)
    return np.stack(np.meshgrid(u, u, indexing="xy"), axis=-1)  # (64, 64, 2)


_COORDS = _coord_planes()


class ActionHead(nn.Linear):
    """Linear map to action-bin logits: (..., d_in) -> (..., 3, data.N_BINS)."""

    def __init__(self, d_in, rng):
        super().__init__(d_in, 3 * data.N_BINS, rng)

    def __call__(self, x):
        return super().__call__(x).reshape(x.shape[:-1] + (3, data.N_BINS))


class PatchStem(nn.Module):
    """Conv pyramid 64 -> 8 producing the 8x8 grid of patch tokens.

    The first conv sees each frame's RGB beside two fixed coordinate planes
    (CoordConv, Liu et al., arXiv 1807.03247). Convolution is linear, so
    the planes add the same (32, 32, 16) map to every frame's output: each
    forward convolves them once, with the coordinate slice of `c1.w` and
    with `c1.b`, and `c1` then runs on RGB alone with that map as its bias.
    """

    def __init__(self, d, rng):
        self.c1 = nn.Conv2d(N_CHAN, 16, rng, stride=2)
        self.c2 = nn.Conv2d(16, 32, rng, stride=2)
        self.c3 = nn.Conv2d(32, 48, rng, stride=2)
        self.embed = nn.Linear(48, d, rng)
        self.pos = nn.Param((0.3 * rng.normal(size=(N_PATCH, d))).astype(np.float32))

    def __call__(self, frames):
        """frames (N, 64, 64, 3) ndarray in [-1,1], cast to the parameters' dtype -> tokens (N, 64, d)."""
        x = np.asarray(frames, dtype=self.c1.w.dtype)
        w = self.c1.w.reshape(9, N_CHAN, 16)
        w_rgb = nn.take(w, slice(0, 3)).reshape(3, 3, 3, 16)
        w_xy = nn.take(w, slice(3, N_CHAN)).reshape(3, 3, 2, 16)
        coords = nn.Tensor(np.asarray(_COORDS[None], dtype=x.dtype))
        bias = nn.conv2d(coords, w_xy, self.c1.b, stride=2).reshape(32, 32, 16)
        h = nn.relu(nn.conv2d(nn.Tensor(x), w_rgb, bias, stride=2))
        h = nn.relu(self.c2(h))
        h = nn.relu(self.c3(h))
        n = h.shape[0]
        return self.embed(h.reshape(n, N_PATCH, 48)) + self.pos


class FrameEncoder(nn.Module):
    """Patch tokens -> one attention block -> pooled per-frame embedding."""

    def __init__(self, d, rng):
        self.stem = PatchStem(d, rng)
        self.blocks = [nn.TransformerBlock(d, rng)]

    def __call__(self, frames):
        """frames (N, 64, 64, 3) ndarray -> (N, d)."""
        h = self.stem(frames)
        for blk in self.blocks:
            h = blk(h)
        return nn.mean(h, axis=1)


class ActionDecoder(nn.Module):
    """Bidirectional temporal encoder + per-transition bin heads."""

    def __init__(self, rng, d=64, window=data.WINDOW, temporal_blocks=2):
        self.d = d
        self.window = window
        self.encoder = FrameEncoder(d, rng)
        self.tpos = nn.Param((0.3 * rng.normal(size=(window, d))).astype(np.float32))
        self.temporal = [nn.TransformerBlock(d, rng) for _ in range(temporal_blocks)]
        self.head = ActionHead(2 * d, rng)

    def decode(self, emb):
        """Encoder embeddings (B, w, d) of w consecutive frames -> logits (B, w-1, 3, N_BINS)."""
        w = emb.shape[1]
        if w != self.window:
            raise ValueError("window size mismatch")
        h = emb + self.tpos
        for blk in self.temporal:
            h = blk(h)
        pair = nn.concat([nn.take(h, slice(0, w - 1)), nn.take(h, slice(1, w))], axis=2)
        return self.head(pair)

    def __call__(self, frames):
        """frames (B, w, 64, 64, 3) float in [-1,1] -> logits (B, w-1, 3, N_BINS)."""
        b, w = frames.shape[0], frames.shape[1]
        emb = self.encoder(frames.reshape(b * w, 64, 64, 3)).reshape(b, w, self.d)
        return self.decode(emb)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class IdmConfig:
    steps: int
    batch: int = 16
    seed: int = 0
    d: int = 64
    window: int = data.WINDOW
    noise_sigma: float = 10.0


def _windows(n, w):
    """Frame indices (n - w + 1, w) of every stride-1 window of length w in n frames."""
    if w < 2:
        raise ValueError(f"window {w}: must be >= 2 frames, one transition")
    if w > n:
        raise ValueError("video too short")
    return np.arange(n - w + 1)[:, None] + np.arange(w)


def pack_video_windows(trajectories):
    """Edge-extract subsampled videos once.

    Returns the pair (edge videos u8 (N, 36, 64, 64, 3), bin targets
    (N, 35, 3)). Training and evaluation both take this pair and read every
    stride-1 window of the model's own length (`_windows`).
    """
    if not trajectories:
        raise ValueError("empty dataset")
    vids, targets = [], []
    for traj in trajectories:
        sub = data.subsample_trajectory(traj)
        vids.append(data.edge_extract_video(sub.frames))
        targets.append(data.discretize(sub.actions))
    return np.stack(vids), np.stack(targets)


def train_idm(packed, cfg, hook=None):
    """Train on a pack_video_windows (videos, targets) pair.

    Each step draws `batch` windows of length `cfg.window` uniformly over
    every (video, start) pair.
    """
    vids, targets = packed
    windows = _windows(vids.shape[1], cfg.window)
    rng = np.random.default_rng(cfg.seed)
    model = ActionDecoder(np.random.default_rng(cfg.seed + 1), d=cfg.d, window=cfg.window)
    opt = nn.Adam(model.params(), lr=1e-3, clip=1.0)
    log = []
    for it in range(cfg.steps):
        pick = rng.integers(0, len(vids) * len(windows), size=cfg.batch)
        vi, k = np.divmod(pick, len(windows))
        frames = vids[vi[:, None], windows[k]]
        logits = model(data.to_unit(data.inject_noise(frames, cfg.noise_sigma, rng)))
        val = opt.minimize(nn.cross_entropy(logits, targets[vi[:, None], windows[k, :-1]]), it)
        log.append(val)
        if hook is not None:
            hook(it, val)
    return model, log


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def _window_logits(model, edge_videos):
    """Logits of every stride-1 window of uint8 edge videos (N, F, 64, 64, 3).

    Each frame is encoded once and every window is decoded from the shared
    embeddings. Returns (N, F-w+1, w-1, 3, N_BINS).
    """
    n, f = edge_videos.shape[:2]
    w = model.window
    windows = _windows(f, w)
    x = data.to_unit(edge_videos.reshape(n * f, 64, 64, 3))
    with nn.no_grad():
        emb = model.encoder(x).data.reshape(n, f, -1)
        logits = model.decode(nn.Tensor(emb[:, windows].reshape(-1, w, emb.shape[-1]))).data
    return logits.reshape((n, len(windows)) + logits.shape[1:])


def label_video(model, video):
    """Action sequence for a 36-frame video via overlapping-window averaging.

    Normalized per-bin probabilities are averaged across every window that
    covers a transition; ties break toward the lower bin index.
    """
    frames = np.asarray(video)
    if frames.ndim != 4:
        raise ValueError(f"video of shape {frames.shape} is not (frames, 64, 64, 3)")
    w = model.window
    windows = _windows(len(frames), w)
    logits = _window_logits(model, data.edge_extract_video(frames)[None])[0]
    probs = nn.softmax(nn.Tensor(logits)).data
    acc = np.zeros((len(frames) - 1,) + probs.shape[2:])
    # a slice add per window: np.add.at gives the same bits ~20x slower (numpy 2.4)
    for k in range(len(windows)):
        acc[k:k + w - 1] += probs[k]
    acc /= np.bincount(windows[:, :-1].ravel())[:, None, None]
    return data.decode_actions(acc)


def binwise_accuracy(model, packed):
    """Per-dimension fraction of transitions predicted within +/-1 bin.

    packed is a pack_video_windows pair; every stride-1 window of the
    model's length in every video is scored.
    """
    vids, targets = packed
    if len(vids) == 0:
        raise ValueError("empty dataset")
    # 8 videos per encoder batch bounds the activation memory
    pred = np.concatenate([_window_logits(model, vids[lo:lo + 8]).argmax(axis=-1)
                           for lo in range(0, len(vids), 8)])
    hit = np.abs(pred - targets[:, _windows(vids.shape[1], model.window)[:, :-1]]) <= 1
    return hit.mean(axis=(0, 1, 2))

