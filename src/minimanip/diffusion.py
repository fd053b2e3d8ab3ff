"""Text- and pose-conditioned pixel-space video diffusion.

Forward noising uses the closed-form marginal of the per-step Gaussian
chain; the denoiser is a small per-frame conv U-Net (64 -> 32 -> 16) with
temporal self-attention over the 36-frame axis at every resolution, spatial
self-attention at 16x16, timestep+text conditioning added per level, and an
adapter pyramid that injects pose-video features into the encoder. Each
attention is one `nn.attention` op, x + attn(layernorm(x + pos)): a temporal
one reads its level's (B·F, H, W, C) frames as a (B, F, H·W, C) view, so no
transposed copy of a level is made, and the sampler's forward passes hold
one chunk of the block's intermediates per worker, not full-size ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn, prompts
from .data import VIDEO_FRAMES, to_unit, from_unit


# ---------------------------------------------------------------------------
# Noise schedule
# ---------------------------------------------------------------------------

@dataclass
class NoiseSchedule:
    T: int
    betas: np.ndarray       # (T,), beta_i for i = 1..T
    alphas: np.ndarray      # 1 - beta
    alpha_bar: np.ndarray   # cumulative products

    def bar(self, i):
        """alpha_bar_i with the alpha_bar_0 = 1 convention."""
        return 1.0 if i == 0 else float(self.alpha_bar[i - 1])


def build_schedule(T, kind="cosine"):
    """Cosine beta schedule of length T (Nichol & Dhariwal, arXiv 2102.09672).

    alpha_bar follows f(u) = cos^2((u + 0.008)/1.008 * pi/2) normalized by
    f(0). It is the one schedule the video model trains and samples with,
    and `kind` accepts only "cosine".
    """
    if kind != "cosine":
        raise ValueError(f"unknown schedule kind: {kind!r}")
    if T < 2:
        raise ValueError("invalid schedule length")

    def f(u):
        return math.cos((u + 0.008) / 1.008 * math.pi / 2.0) ** 2
    f0 = f(0.0)
    bar = np.array([f(i / T) / f0 for i in range(T + 1)])
    betas = np.clip(1.0 - bar[1:] / bar[:-1], 1e-8, 0.999)
    alphas = 1.0 - betas
    return NoiseSchedule(T=T, betas=betas, alphas=alphas, alpha_bar=np.cumprod(alphas))


def forward_diffuse(v0, t_idx, noise, schedule):
    """Closed-form marginal sample: sqrt(ab_t) v0 + sqrt(1-ab_t) eps.

    t_idx is a timestep in 1..T or an array of them, one per leading row of
    v0 (a batch of videos). alpha_bar_t is cast to float32 and reshaped to
    broadcast over the remaining axes, so float32 inputs stay float32.
    """
    t_idx = np.asarray(t_idx)
    if np.any(t_idx < 1) or np.any(t_idx > schedule.T):
        raise ValueError("invalid timestep")
    ab = schedule.alpha_bar[t_idx - 1].astype(np.float32)
    ab = ab.reshape(ab.shape + (1,) * (np.ndim(v0) - ab.ndim))
    return np.sqrt(ab) * v0 + np.sqrt(1.0 - ab) * noise


def reverse_step(vi, i, eps_hat, schedule, rng):
    """One ancestral denoising step with fixed posterior variance."""
    if not (1 <= i <= schedule.T):
        raise ValueError("invalid timestep")
    beta = schedule.betas[i - 1]
    alpha = schedule.alphas[i - 1]
    ab_i = schedule.bar(i)
    ab_prev = schedule.bar(i - 1)
    mean = (vi - beta / math.sqrt(1.0 - ab_i) * eps_hat) / math.sqrt(alpha)
    if i == 1:
        return mean
    var = beta * (1.0 - ab_prev) / (1.0 - ab_i)
    return mean + math.sqrt(var) * rng.standard_normal(vi.shape).astype(vi.dtype, copy=False)


# ---------------------------------------------------------------------------
# Denoiser
# ---------------------------------------------------------------------------

class VideoAttention(nn.Module):
    """Pre-norm single-head residual attention x + attn(ln(x + pos)) over axis 1 of x.

    x is (B, T, S, C), S sequences of T tokens per item, or (N, T, C).
    """

    def __init__(self, d, n_tokens, rng):
        self.ln = nn.LayerNorm(d)
        self.attn = nn.SelfAttention(d, rng)
        self.pos = nn.Param((0.3 * rng.normal(size=(n_tokens, d))).astype(np.float32))

    def __call__(self, x):
        return self.attn(x, self.ln, self.pos)


class PoseAdapter(nn.Module):
    """Per-frame conv pyramid over the pose video; one feature map per level."""

    def __init__(self, channels, rng):
        c1, c2, c3 = channels
        self.c1 = nn.Conv2d(1, c1, rng)
        self.c2 = nn.Conv2d(c1, c2, rng, stride=2)
        self.c3 = nn.Conv2d(c2, c3, rng, stride=2)

    def __call__(self, pose):
        f1 = self.c1(pose)
        f2 = self.c2(nn.relu(f1))
        f3 = self.c3(nn.relu(f2))
        return f1, f2, f3


class VideoDenoiser(nn.Module):
    """Epsilon-prediction U-Net over (B, F, 3, 64, 64) videos in [-1, 1]."""

    def __init__(self, rng, channels=(12, 24, 48), cond_dim=64, frames=VIDEO_FRAMES):
        c1, c2, c3 = channels
        self.channels = tuple(channels)
        self.frames = frames
        self.cond_dim = cond_dim
        # 64x64 level stays slim (3x3 convs here dominate the FLOP budget)
        self.in_conv = nn.Conv2d(3, c1, rng)
        self.tattn1 = VideoAttention(c1, frames, rng)
        self.down1 = nn.Conv2d(c1, c2, rng, stride=2)
        self.tattn2 = VideoAttention(c2, frames, rng)
        self.conv2 = nn.Conv2d(c2, c2, rng)
        self.down2 = nn.Conv2d(c2, c3, rng, stride=2)
        self.sattn3 = VideoAttention(c3, 16 * 16, rng)
        self.tattn3 = VideoAttention(c3, frames, rng)
        self.conv3 = nn.Conv2d(c3, c3, rng)
        self.up2 = nn.UpBlock(c3, c2, rng)
        self.conv4 = nn.Conv2d(c2, c2, rng)
        self.up1 = nn.UpBlock(c2, c1, rng)
        self.out_proj = nn.Conv2d(c1, 6, rng, k=1)
        self.out_conv = nn.Conv2d(6, 3, rng)
        self.out_conv.w.data *= 0.01  # start near zero-noise prediction
        self.time_fc1 = nn.Linear(cond_dim, cond_dim, rng)
        self.time_fc2 = nn.Linear(cond_dim, cond_dim, rng)
        self.text_fc = nn.Linear(prompts.EMBED_DIM, cond_dim, rng)
        self.cond1 = nn.Linear(cond_dim, c1, rng)
        self.cond2 = nn.Linear(cond_dim, c2, rng)
        self.cond3 = nn.Linear(cond_dim, c3, rng)
        self.cond4 = nn.Linear(cond_dim, c2, rng)
        self.cond5 = nn.Linear(cond_dim, c1, rng)
        self.adapter = PoseAdapter(channels, rng)

    # -- conditioning helpers ------------------------------------------
    def _input(self, x):
        """Array x as a Tensor of the parameters' dtype."""
        return nn.Tensor(np.asarray(x, dtype=self.in_conv.w.dtype))

    def _cond_vector(self, t_idx, text_emb, schedule_T):
        emb = nn.sinusoidal_embedding(np.asarray(t_idx, dtype=np.float64) / schedule_T * 1000.0,
                                      self.cond_dim)
        h = self.time_fc2(nn.silu(self.time_fc1(self._input(emb))))
        return h + self.text_fc(self._input(text_emb))

    @staticmethod
    def _add_cond(x, cond_c, b, f):
        n, h, w, c = x.shape
        bias = cond_c.reshape(b, 1, 1, 1, c)
        return (x.reshape(b, f, h, w, c) + bias).reshape(n, h, w, c)

    def pose_features(self, pose_video):
        """Encode a pose video (B, F, 64, 64, 1) in [0,1] into level features."""
        pv = self._input(pose_video)
        b = pv.shape[0]
        flat = pv.reshape(b * self.frames, pv.shape[-3], pv.shape[-2], 1)
        return self.adapter(flat)

    def __call__(self, v, t_idx, text_emb, pose_feats, schedule_T):
        """Predict the noise in v (B, F, 64, 64, 3) at timesteps t_idx.

        Each temporal attention reads its level as a (B, F, H·W, C) view of
        the (B·F, H, W, C) frames, attending over the frames at every pixel
        with no transposed copy. A skip activation is dropped after its last
        read, so that under no_grad it is freed before the output stage.
        """
        v = self._input(v)
        b, f = v.shape[0], v.shape[1]
        hh, ww = v.shape[2], v.shape[3]
        f1, f2, f3 = pose_feats
        cond = self._cond_vector(t_idx, text_emb, schedule_T)

        x = v.reshape(b * f, hh, ww, 3)
        h1 = self.in_conv(x) + f1
        h1 = self._add_cond(h1, self.cond1(cond), b, f)
        h1 = self.tattn1(h1.reshape(b, f, -1, h1.shape[-1])).reshape(h1.shape)

        h2 = self.down1(nn.relu(h1)) + f2
        h2 = self._add_cond(h2, self.cond2(cond), b, f)
        h2 = self.tattn2(h2.reshape(b, f, -1, h2.shape[-1])).reshape(h2.shape)
        h2 = h2 + nn.relu(self.conv2(h2))

        h3 = self.down2(nn.relu(h2)) + f3
        h3 = self._add_cond(h3, self.cond3(cond), b, f)
        n3, h16, w16, c3 = h3.shape
        h3 = self.sattn3(h3.reshape(n3, h16 * w16, c3))
        h3 = self.tattn3(h3.reshape(b, f, h16 * w16, c3)).reshape(n3, h16, w16, c3)
        h3 = h3 + nn.relu(self.conv3(h3))

        u2 = self.up2(h3) + h2
        del h2, h3
        u2 = self._add_cond(u2, self.cond4(cond), b, f)
        u2 = u2 + nn.relu(self.conv4(u2))

        u1 = self.up1(u2) + h1
        del h1, u2
        u1 = self._add_cond(u1, self.cond5(cond), b, f)
        eps = self.out_conv(nn.relu(self.out_proj(nn.relu(u1))))
        return eps.reshape(b, f, hh, ww, 3)


# ---------------------------------------------------------------------------
# Training and sampling
# ---------------------------------------------------------------------------

@dataclass
class DvgConfig:
    steps: int
    batch: int
    T: int
    seed: int = 0
    channels: tuple = (12, 24, 48)


def prepare_dvg_dataset(items):
    """(video u8, task id, pose u8) triples -> the training set, frames kept as given.

    Returns dict with videos, the items' own (F,64,64,3) uint8 arrays, text
    (N,32) float32 holding each task's `prompts.task_embedding`, and pose, the
    items' own (F,64,64,1) uint8 pose videos. `train_dvg` converts each batch
    it draws, so the set is never held as float.
    """
    if not items:
        raise ValueError("empty dataset")
    videos, tasks, poses = zip(*items)
    return {
        "videos": videos,
        "text": np.asarray([prompts.task_embedding(t) for t in tasks], dtype=np.float32),
        "pose": poses,
    }


def train_dvg(items, cfg, hook=None):
    """Mini-batch epsilon-prediction training on `prepare_dvg_dataset` items; returns (model, loss log).

    The set stays uint8: each step converts only the videos and pose videos it draws.
    """
    packed = prepare_dvg_dataset(items)
    videos, text, pose = packed["videos"], packed["text"], packed["pose"]
    n = len(videos)
    rng = np.random.default_rng(cfg.seed)
    model = VideoDenoiser(np.random.default_rng(cfg.seed + 1), channels=cfg.channels)
    sched = build_schedule(cfg.T)
    opt = nn.Adam(model.params(), lr=2e-3, clip=1.0)
    log = []
    for it in range(cfg.steps):
        idx = rng.integers(0, n, size=min(cfg.batch, n))
        v0 = to_unit(np.stack([videos[i] for i in idx]))
        t_idx = rng.integers(1, cfg.T + 1, size=len(idx))
        eps = rng.standard_normal(v0.shape).astype(np.float32)
        v_t = forward_diffuse(v0, t_idx, eps, sched)
        feats = model.pose_features(np.stack([pose[i] for i in idx]).astype(np.float32) / 255.0)
        pred = model(v_t, t_idx, text[idx], feats, sched.T)
        val = opt.minimize(nn.mse(pred, eps), it)
        log.append(val)
        if hook is not None:
            hook(it, val)
    return model, log


def sample_video(model, text_emb, pose_video, schedule, rng):
    """Ancestral sampling conditioned on text embeddings and pose videos.

    text_emb (M, 32); pose_video (M, F, 64, 64, 1) uint8.
    Returns (M, F, 64, 64, 3) uint8 frames.
    """
    text_emb = np.asarray(text_emb, dtype=np.float32)
    pose = np.asarray(pose_video, dtype=np.float32) / 255.0
    m, f = pose.shape[0], pose.shape[1]
    v = rng.standard_normal((m, f, 64, 64, 3)).astype(np.float32)
    with nn.no_grad():
        feats = model.pose_features(pose)
        for i in range(schedule.T, 0, -1):
            t_idx = np.full(m, i)
            eps = model(v, t_idx, text_emb, feats, schedule.T).data
            if not np.isfinite(eps).all():
                raise RuntimeError(f"numerical divergence at step {i}")
            v = reverse_step(v, i, eps, schedule, rng)
            del eps  # freed before the next step's forward pass
    v = np.clip(v, -1.0, 1.0)
    return from_unit(v)


def psnr(a, b):
    """Peak signal-to-noise ratio between uint8 frame stacks, in dB."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mse_val = np.mean((a - b) ** 2)
    if mse_val == 0:
        return float("inf")
    return 10.0 * math.log10(255.0 ** 2 / mse_val)
