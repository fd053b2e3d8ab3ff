import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from minimanip import diffusion as dvg
from minimanip import nn, prompts


@pytest.mark.parametrize("kind", ["linear", "cosine"])
@pytest.mark.parametrize("T", [2, 10, 200, 1000])
def test_schedule_invariants(kind, T):
    s = dvg.build_schedule(T, kind)
    assert len(s.betas) == T
    assert np.all(s.betas > 0) and np.all(s.betas < 1)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert s.alpha_bar[-1] < 0.01


def test_cosine_first_step_near_one():
    s = dvg.build_schedule(200, "cosine")
    assert s.alpha_bar[0] >= 0.999


def test_linear_endpoint_noising():
    s = dvg.build_schedule(200, "linear")
    assert s.alpha_bar[-1] < 0.01


def test_schedule_rejects_bad_T():
    with pytest.raises(ValueError, match="invalid schedule length"):
        dvg.build_schedule(1, "linear")


def test_forward_diffuse_identity_limit():
    s = dvg.build_schedule(200, "cosine")
    s.alpha_bar[0] = 1.0  # hypothetical lossless step
    v0 = np.ones((2, 3))
    out = dvg.forward_diffuse(v0, 1, np.zeros_like(v0) + 5.0, s)
    assert np.allclose(out, v0)


def test_forward_diffuse_terminal_statistics():
    s = dvg.build_schedule(200, "linear")
    rng = np.random.default_rng(0)
    v0 = np.zeros(10_000)
    out = dvg.forward_diffuse(v0, 200, rng.standard_normal(10_000), s)
    assert abs(out.mean()) < 0.05
    assert 0.9 < out.var() < 1.1


def test_forward_diffuse_bad_timestep():
    s = dvg.build_schedule(10, "linear")
    with pytest.raises(ValueError, match="invalid timestep"):
        dvg.forward_diffuse(np.zeros(3), 11, np.zeros(3), s)


def test_forward_diffuse_batched_timesteps():
    # one timestep per video, as train_dvg draws them; float32 stays float32
    s = dvg.build_schedule(200, "cosine")
    rng = np.random.default_rng(4)
    v0 = rng.standard_normal((3, 2, 4)).astype(np.float32)
    eps = rng.standard_normal((3, 2, 4)).astype(np.float32)
    t_idx = np.array([1, 50, 200])
    out = dvg.forward_diffuse(v0, t_idx, eps, s)
    assert out.dtype == np.float32
    for row, t in enumerate(t_idx):
        assert np.array_equal(out[row], dvg.forward_diffuse(v0[row], t, eps[row], s))
    with pytest.raises(ValueError, match="invalid timestep"):
        dvg.forward_diffuse(v0, np.array([1, 0, 2]), eps, s)


def test_marginal_matches_iterated_chain():
    """Criterion-1 oracle: brute-force single-step chain vs closed form."""
    rng = np.random.default_rng(42)
    v0 = np.array([0.5, -0.3, 0.8, -0.9])
    s = dvg.build_schedule(200, "linear")
    trials = 10_000
    for i_check in (1, 100, 200):
        chain = np.repeat(v0[None], trials, axis=0)
        for i in range(1, i_check + 1):
            chain = (np.sqrt(s.alphas[i - 1]) * chain
                     + np.sqrt(s.betas[i - 1]) * rng.standard_normal(chain.shape))
        closed_mean = np.sqrt(s.bar(i_check)) * v0
        closed_var = 1.0 - s.bar(i_check)
        assert np.abs(chain.mean(axis=0) - closed_mean).max() <= 0.02
        assert np.abs(chain.var(axis=0) / closed_var - 1.0).max() <= 0.05
        pooled = chain.var(axis=0).mean()
        assert abs(pooled / closed_var - 1.0) <= 0.02


def test_dvg_loss_basic():
    # train_dvg's loss is nn.mse(predicted noise, true noise)
    def loss(a, b):
        return float(nn.mse(nn.Tensor(a), b).data)

    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 5))
    assert loss(a, a) == 0.0
    big = rng.standard_normal(1_000_000)
    assert 0.99 <= loss(big, np.zeros_like(big)) <= 1.01
    b = rng.standard_normal((4, 5))
    assert loss(a, b) == pytest.approx(loss(b, a))


def test_reverse_step_final_deterministic():
    s = dvg.build_schedule(50, "cosine")
    v = np.ones((3, 3))
    eps = np.zeros((3, 3))
    out1 = dvg.reverse_step(v, 1, eps, s, np.random.default_rng(0))
    out2 = dvg.reverse_step(v, 1, eps, s, np.random.default_rng(99))
    assert np.array_equal(out1, out2)


def test_reverse_step_inverts_first_forward():
    s = dvg.build_schedule(200, "linear")
    rng = np.random.default_rng(3)
    v0 = rng.standard_normal((2, 4))
    eps = rng.standard_normal((2, 4))
    v1 = dvg.forward_diffuse(v0, 1, eps, s)
    rec = dvg.reverse_step(v1, 1, eps, s, rng)
    assert np.abs(rec - v0).max() < 1e-5


def test_reverse_step_variance_bounds():
    s = dvg.build_schedule(100, "cosine")
    for i in range(2, 101):
        var = s.betas[i - 1] * (1 - s.bar(i - 1)) / (1 - s.bar(i))
        assert 0.0 < var <= s.betas[i - 1] + 1e-12


def test_denoiser_shapes_and_determinism():
    model = dvg.VideoDenoiser(np.random.default_rng(0), channels=(4, 6, 8))
    rng = np.random.default_rng(1)
    v = rng.standard_normal((1, 36, 64, 64, 3)).astype(np.float32)
    text = rng.standard_normal((1, 32)).astype(np.float32)
    pose = rng.random((1, 36, 64, 64, 1)).astype(np.float32)
    feats = model.pose_features(pose)
    out1 = model(v, np.array([5]), text, feats, 100).data
    out2 = model(v, np.array([5]), text, feats, 100).data
    assert out1.shape == (1, 36, 64, 64, 3)
    assert np.array_equal(out1, out2)


def test_pose_adapter_per_frame_structure():
    model = dvg.VideoDenoiser(np.random.default_rng(0), channels=(4, 6, 8))
    pose = np.zeros((1, 36, 64, 64, 1), dtype=np.float32)
    pose2 = pose.copy()
    pose2[0, 17] = 1.0  # change one frame
    f1 = [f.data for f in model.pose_features(pose)]
    f2 = [f.data for f in model.pose_features(pose2)]
    for a, b in zip(f1, f2):
        a = a.reshape(36, -1)
        b = b.reshape(36, -1)
        diff = np.abs(a - b).sum(axis=1)
        assert diff[17] > 0
        assert np.all(diff[np.arange(36) != 17] == 0)


def test_sampling_deterministic_under_seed():
    model = dvg.VideoDenoiser(np.random.default_rng(0), channels=(4, 6, 8))
    sched = dvg.build_schedule(5, "cosine")
    text = np.zeros((1, 32), dtype=np.float32)
    pose = np.zeros((1, 36, 64, 64, 1), dtype=np.float32)
    v1 = dvg.sample_video(model, text, pose, sched, np.random.default_rng(7))
    v2 = dvg.sample_video(model, text, pose, sched, np.random.default_rng(7))
    assert np.array_equal(v1, v2)
    assert v1.shape == (1, 36, 64, 64, 3)
    assert v1.dtype == np.uint8


def _param_digest(model):
    """sha256 (first 16 hex digits) over the names, shapes, dtypes and bytes of the parameters."""
    h = hashlib.sha256()
    for name, p in sorted(model.params().items()):
        h.update(f"{name}{p.data.shape}{p.data.dtype}".encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()[:16]


def _tiny_dvg_run():
    """A seeded 3-step train_dvg run on three tasks' random uint8 videos and pose videos."""
    rng = np.random.default_rng(0)
    items = [(rng.integers(0, 256, size=(36, 64, 64, 3)).astype(np.uint8), task,
              rng.integers(0, 256, size=(36, 64, 64, 1)).astype(np.uint8))
             for task in ("button-press", "door-open", "reach")]
    cfg = dvg.DvgConfig(steps=3, batch=2, T=20, channels=(4, 6, 8), seed=5)
    return dvg.train_dvg(items, cfg)


def test_train_dvg_determinism_and_batch_mean():
    model1, log1 = _tiny_dvg_run()
    model2, log2 = _tiny_dvg_run()
    assert log1 == log2
    assert _param_digest(model1) == _param_digest(model2)


def test_train_dvg_bits_are_pinned():
    """The tiny run's loss log and final parameters, bit for bit, whatever the environment asks of BLAS.

    Recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64. A BLAS that threads
    sums some GEMMs in another order; importing nn sets BLAS to one thread, so
    the run gives the same bits with none of the BLAS thread variables set and
    with OPENBLAS_NUM_THREADS=2. Each run gets a process of its own, and the op
    pool is forced to 1, 2 and 3 workers, whatever cores the machine allows:
    every count gives the serial loop's bits.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(dvg.__file__)))
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        for workers in (1, 2, 3):
            script = f"""
import importlib.util
from minimanip import nn
nn._WORKERS = {workers}
spec = importlib.util.spec_from_file_location("dvg_tests", {os.path.abspath(__file__)!r})
tests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tests)
model, log = tests._tiny_dvg_run()
print(*(v.hex() for v in log), tests._param_digest(model))
"""
            done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  env={**base, **blas, "PYTHONPATH": src}, timeout=300)
            assert done.returncode == 0, done.stderr
            assert done.stdout.split() == ["0x1.124b840000000p+0", "0x1.0bcb280000000p+0",
                                           "0x1.20f09c0000000p+0", "ce2c1ed1b9f4029e"], (blas, workers)


def test_gradcheck_miniature_denoiser():
    """Analytic gradient of the noise-prediction loss vs finite differences."""
    model = dvg.VideoDenoiser(np.random.default_rng(0), channels=(2, 3, 4),
                              cond_dim=8, frames=2).astype(np.float64)
    rng = np.random.default_rng(1)
    v = rng.standard_normal((1, 2, 64, 64, 3))
    eps = rng.standard_normal((1, 2, 64, 64, 3))
    text = rng.standard_normal((1, 32))
    pose = rng.random((1, 2, 64, 64, 1))
    p = model.tattn2.attn.wq  # a parameter deep inside

    def loss_value():
        feats = model.pose_features(pose)
        return nn.mse(model(v, np.array([3]), text, feats, 10), eps)

    loss_value().backward()
    analytic = p.grad.copy()
    idx = [(0, 0), (1, 2), (2, 1)]
    h = 1e-5
    for i, j in idx:
        old = p.data[i, j]
        p.data[i, j] = old + h
        up = float(loss_value().data)
        p.data[i, j] = old - h
        dn = float(loss_value().data)
        p.data[i, j] = old
        numeric = (up - dn) / (2 * h)
        assert abs(analytic[i, j] - numeric) / (abs(numeric) + 1e-8) < 1e-4


def test_psnr():
    a = np.zeros((4, 4), dtype=np.uint8)
    assert dvg.psnr(a, a) == float("inf")
    b = a + 16
    assert dvg.psnr(a, b) == pytest.approx(10 * np.log10(255 ** 2 / 256.0))


def test_prepare_dvg_dataset_reads_task_embeddings():
    videos = [np.full((36, 64, 64, 3), k, dtype=np.uint8) for k in (0, 1)]
    poses = [np.full((36, 64, 64, 1), k, dtype=np.uint8) for k in (254, 255)]
    packed = dvg.prepare_dvg_dataset([(videos[0], "door-open", poses[0]), (videos[1], "reach", poses[1])])
    assert packed["text"].dtype == np.float32
    assert np.array_equal(packed["text"][0], prompts.task_embedding("door-open").astype(np.float32))
    assert np.array_equal(packed["text"][1], prompts.task_embedding("reach").astype(np.float32))
    # the set keeps the items' own uint8 arrays: train_dvg converts each batch it draws
    assert all(a is b for a, b in zip(packed["videos"], videos, strict=True))
    assert all(a is b for a, b in zip(packed["pose"], poses, strict=True))
    with pytest.raises(ValueError, match="unknown task"):
        dvg.prepare_dvg_dataset([(videos[0], "button press", poses[0])])


def test_prepare_dvg_dataset_copies_no_frames():
    """24 items of 36 frames: the packed set allocates only the text rows, not a float copy."""
    video = np.zeros((36, 64, 64, 3), dtype=np.uint8)
    pose = np.zeros((36, 64, 64, 1), dtype=np.uint8)
    items = [(video, task, pose) for task in ("door-open", "reach", "button-press")] * 8
    dvg.prepare_dvg_dataset(items)  # the task embeddings are cached from here on
    tracemalloc.start()
    try:
        packed = dvg.prepare_dvg_dataset(items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(packed["videos"]) == len(packed["pose"]) == 24
    assert peak < 1 << 20
