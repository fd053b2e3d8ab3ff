import numpy as np
import pytest

from minimanip import data, env, nn
from minimanip import inverse_dynamics as idm


@pytest.fixture(scope="module")
def tiny_model():
    return idm.ActionDecoder(np.random.default_rng(0), d=32, temporal_blocks=1)


def test_forward_shape(tiny_model):
    x = np.zeros((2, 12, 64, 64, 3), dtype=np.float32)
    out = tiny_model(x).data
    assert out.shape == (2, 11, 3, 256)
    assert np.isfinite(out).all()


def test_window_size_mismatch(tiny_model):
    with pytest.raises(ValueError, match="window size mismatch"):
        tiny_model(np.zeros((1, 10, 64, 64, 3), dtype=np.float32))


def test_permuting_frames_changes_logits(tiny_model):
    rng = np.random.default_rng(1)
    x = rng.random((1, 12, 64, 64, 3)).astype(np.float32)
    out1 = tiny_model(x).data
    perm = x[:, ::-1].copy()
    out2 = tiny_model(perm).data
    assert not np.allclose(out1, out2)


def test_uniform_logits_loss(tiny_model):
    logits = nn.Tensor(np.zeros((2, 11, 3, 256), dtype=np.float32))
    targets = np.random.default_rng(0).integers(0, 256, size=(2, 11, 3))
    loss = float(nn.cross_entropy(logits, targets).data)
    assert loss == pytest.approx(np.log(256.0), abs=1e-5)


def test_delta_logits_near_zero_loss():
    targets = np.random.default_rng(1).integers(0, 256, size=(1, 11, 3))
    logits = np.zeros((1, 11, 3, 256), dtype=np.float32)
    for t in range(11):
        for d in range(3):
            logits[0, t, d, targets[0, t, d]] = 30.0
    assert float(nn.cross_entropy(nn.Tensor(logits), targets).data) < 1e-9


def test_loss_target_mismatch(tiny_model):
    logits = nn.Tensor(np.zeros((1, 11, 3, 256), dtype=np.float32))
    with pytest.raises(ValueError, match=r"logits of shape \(1, 11, 3, 256\) do not match targets of shape \(1, 10, 3\)"):
        nn.cross_entropy(logits, np.zeros((1, 10, 3), dtype=np.int64))


def test_overfit_loss_decreases():
    trajs = [data.run_episode("drawer-open", s, epsilon=0.0) for s in range(2)]
    packed = idm.pack_video_windows(trajs)
    cfg = idm.IdmConfig(steps=80, batch=8, seed=0, noise_sigma=0.0, d=32)
    _, log = idm.train_idm(packed, cfg)
    assert np.mean(log[-10:]) < 0.5 * log[0]
    assert min(log) < 0.1


def test_train_determinism():
    trajs = [data.run_episode("reach", 0, epsilon=0.0)]
    packed = idm.pack_video_windows(trajs)
    cfg = idm.IdmConfig(steps=5, batch=4, seed=3, d=32)
    _, log1 = idm.train_idm(packed, cfg)
    _, log2 = idm.train_idm(packed, cfg)
    assert log1 == log2


def test_train_empty():
    with pytest.raises(ValueError, match="empty dataset"):
        idm.pack_video_windows([])


@pytest.fixture(scope="module")
def noise_packed(tiny_model):
    """Packed noise videos whose targets make every window's predictions count.

    Returns the packed pair and the reference argmax bins of
    model(every window). Random-init models predict the same bins for every
    window of an expert video, so noise frames keep the windows apart; the
    targets are the reference bins of the windows at starts 0, 11, 22 and
    24, which tile the 35 transitions, so a mis-gathered window loses hits.
    """
    vids = np.random.default_rng(5).integers(0, 256, size=(3, 36, 64, 64, 3), dtype=np.uint8)
    w = tiny_model.window
    x = np.stack([vids[:, k:k + w] for k in range(36 - w + 1)], axis=1).reshape(-1, w, 64, 64, 3)
    x = x.astype(np.float32) / 127.5 - 1.0
    pred = np.concatenate([tiny_model(x[lo:lo + 25]).data.argmax(axis=-1)
                           for lo in range(0, len(x), 25)]).reshape(3, 36 - w + 1, w - 1, 3)
    targets = np.concatenate([pred[:, 0], pred[:, 11], pred[:, 22], pred[:, 24, 9:]], axis=1)
    return (vids, targets), pred


def test_binwise_accuracy_matches_windowed_model(tiny_model, noise_packed):
    (vids, targets), pred = noise_packed
    w = tiny_model.window
    hits = np.zeros(3)
    for vi in range(len(vids)):
        for k in range(36 - w + 1):
            hits += (np.abs(pred[vi, k] - targets[vi, k:k + w - 1]) <= 1).sum(axis=0)
    want = hits / (len(vids) * (36 - w + 1) * (w - 1))
    assert np.array_equal(idm.binwise_accuracy(tiny_model, (vids, targets)), want)


def test_one_pack_serves_every_window_length(monkeypatch):
    # the pack holds no window: models at windows 3 and 12 train on it and
    # are scored on all 36 - w + 1 windows of every video
    vids, targets = packed = idm.pack_video_windows(
        [data.run_episode("reach", s, epsilon=0.1) for s in range(2)])
    window_logits, calls = idm._window_logits, []

    def recording(model, edge_videos):
        calls.append(window_logits(model, edge_videos))
        return calls[-1]

    monkeypatch.setattr(idm, "_window_logits", recording)
    for w in (3, 12):
        calls.clear()
        model, log = idm.train_idm(packed, idm.IdmConfig(steps=1, batch=2, d=8, window=w))
        assert model.window == w and np.isfinite(log).all()
        acc = idm.binwise_accuracy(model, packed)
        assert len(calls) == 1 and calls[0].shape[:3] == (2, 36 - w + 1, w - 1)
        pred = calls[0].argmax(axis=-1)
        hits = [np.abs(pred[vi, k] - targets[vi, k:k + w - 1]) <= 1
                for vi in range(2) for k in range(36 - w + 1)]
        assert np.array_equal(acc, np.mean(hits, axis=(0, 1)))


def test_binwise_accuracy_encodes_each_frame_once(tiny_model, noise_packed, monkeypatch):
    rows = []
    encode = idm.FrameEncoder.__call__

    def counting(self, frames):
        rows.append(frames.shape[0])
        return encode(self, frames)

    monkeypatch.setattr(idm.FrameEncoder, "__call__", counting)
    packed, _ = noise_packed
    idm.binwise_accuracy(tiny_model, packed)
    assert sum(rows) == 36 * len(packed[0])


def test_label_video_coverage_arithmetic():
    # 36 frames, w=12: 25 windows; transition t covered by min(t+1, 11, 35-t, 25)
    n, w = 36, 12
    starts = list(range(n - w + 1))
    assert len(starts) == 25
    for t in range(n - 1):
        covered = sum(1 for k in starts if k <= t < k + w - 1)
        assert covered == min(t + 1, w - 1, n - 1 - t, n - w + 1)
    assert sum(1 for k in starts if k <= 17 < k + 11) == 11


class _ConstantLogitModel:
    """Stub emitting the same per-transition distribution at every position."""

    window = 12

    def __init__(self, peak_bins):
        self.peak = peak_bins

    def encoder(self, frames):
        return nn.Tensor(np.zeros((frames.shape[0], 1), dtype=np.float32))

    def decode(self, emb):
        b, w = emb.shape[0], emb.shape[1]
        logits = np.zeros((b, w - 1, 3, 256), dtype=np.float32)
        for d in range(3):
            logits[:, :, d, self.peak[d]] = 9.0
        return nn.Tensor(logits)


def test_label_video_consensus():
    video = np.zeros((36, 64, 64, 3), dtype=np.uint8)
    stub = _ConstantLogitModel([40, 128, 250])
    acts = idm.label_video(stub, video)
    assert acts.shape == (35, 3)
    # identical window distributions -> identical actions at every transition
    assert np.allclose(acts, acts[0])
    assert np.allclose(acts[0], data.undiscretize(np.array([40, 128, 250])))


def test_label_video_matches_windowed_model(tiny_model):
    # reference: run the model on all 25 windows, average each transition's
    # bin probabilities over the windows covering it, take the argmax. Noise
    # frames keep the embeddings apart, so a mis-sliced window moves labels.
    video = np.random.default_rng(2).integers(0, 256, size=(36, 64, 64, 3), dtype=np.uint8)
    n, w = len(video), tiny_model.window
    edge = data.edge_extract_video(video).astype(np.float32) / 127.5 - 1.0
    logits = tiny_model(np.stack([edge[k:k + w] for k in range(n - w + 1)])).data
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    acc = np.zeros((n - 1, 3, 256))
    count = np.zeros(n - 1)
    for k in range(n - w + 1):
        acc[k:k + w - 1] += probs[k]
        count[k:k + w - 1] += 1
    want = data.undiscretize((acc / count[:, None, None]).argmax(axis=-1))
    assert np.array_equal(idm.label_video(tiny_model, video), want)


def test_label_video_too_short(tiny_model):
    with pytest.raises(ValueError, match="video too short"):
        idm.label_video(tiny_model, np.zeros((8, 64, 64, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match=r"video of shape \(64, 64, 3\) is not"):
        idm.label_video(tiny_model, np.zeros((64, 64, 3), dtype=np.uint8))


def _stem_with_concatenated_coords(stem, frames):
    """PatchStem's forward with the coordinate planes concatenated onto every frame: one 5-channel conv."""
    x = np.asarray(frames, dtype=stem.c1.w.dtype)
    coords = np.broadcast_to(idm._COORDS, x.shape[:-1] + (2,))
    h = nn.relu(stem.c1(nn.Tensor(np.concatenate([x, coords], axis=-1, dtype=x.dtype))))
    h = nn.relu(stem.c2(h))
    h = nn.relu(stem.c3(h))
    return stem.embed(h.reshape(h.shape[0], idm.N_PATCH, 48)) + stem.pos


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_folded_stem_matches_concatenated_coords(dtype):
    """The stem's output and every parameter grad are within 100 machine epsilons of the reference.

    The deviation of each array is taken relative to its largest magnitude;
    folding the planes into a bias map only reorders sums.
    """
    results = []
    for forward in (_stem_with_concatenated_coords, idm.PatchStem.__call__):
        rng = np.random.default_rng(8)
        stem = idm.PatchStem(16, rng).astype(dtype)
        stem.c1.b.data = (0.1 * rng.normal(size=16)).astype(dtype)  # the map's constant part shows
        frames = rng.uniform(-1.0, 1.0, size=(6, 64, 64, 3))
        y = forward(stem, frames)
        y.backward(rng.normal(size=y.shape).astype(dtype))
        results.append([y.data] + [p.grad for _, p in sorted(stem.params().items())])
    for ref, got in zip(*results):
        assert got.dtype == ref.dtype == dtype and got.shape == ref.shape
        assert np.abs(got - ref).max() <= 100 * np.finfo(dtype).eps * np.abs(ref).max()


def test_gradcheck_miniature_idm():
    model = idm.ActionDecoder(np.random.default_rng(0), d=8, window=3, temporal_blocks=1).astype(np.float64)
    rng = np.random.default_rng(1)
    frames = rng.random((1, 3, 64, 64, 3))
    targets = rng.integers(0, 256, size=(1, 2, 3))

    def loss_value():
        return nn.cross_entropy(model(frames), targets)

    loss_value().backward()
    p = model.temporal[0].attn.wv
    analytic = p.grad.copy()
    h = 1e-5
    for i, j in [(0, 0), (3, 5), (7, 2)]:
        old = p.data[i, j]
        p.data[i, j] = old + h
        up = float(loss_value().data)
        p.data[i, j] = old - h
        dn = float(loss_value().data)
        p.data[i, j] = old
        num = (up - dn) / (2 * h)
        assert abs(analytic[i, j] - num) / (abs(num) + 1e-8) < 1e-4
