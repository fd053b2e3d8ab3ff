import contextlib
import tracemalloc

import numpy as np
import pytest

from minimanip import nn


def finite_difference_grad(f, x, eps=1e-5):
    """Central-difference gradient of scalar f at ndarray x (float64)."""
    x = x.astype(np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        fp = f(x)
        flat[i] = old - eps
        fm = f(x)
        flat[i] = old
        gf[i] = (fp - fm) / (2 * eps)
    return g


def _gradcheck_input(build_loss, x0, tol=1e-6):
    x = nn.Tensor(x0.astype(np.float64), requires_grad=True)
    loss = build_loss(x)
    loss.backward()
    analytic = x.grad.copy()
    numeric = finite_difference_grad(
        lambda a: float(build_loss(nn.Tensor(a)).data), x0.astype(np.float64))
    rel = np.abs(analytic - numeric).max() / (np.abs(numeric).max() + 1e-12)
    assert rel < tol, rel


def test_matmul_grad():
    rng = np.random.default_rng(0)
    w = nn.Tensor(rng.normal(size=(5, 4)))
    _gradcheck_input(lambda x: nn.mse(nn.matmul(x, w), 0.3), rng.normal(size=(6, 5)))


def test_batched_matmul_grad():
    rng = np.random.default_rng(1)
    b = nn.Tensor(rng.normal(size=(3, 4, 2)))
    _gradcheck_input(lambda x: nn.mse(nn.matmul(x, b), 0.0), rng.normal(size=(3, 5, 4)))


def test_softmax_ce_grad():
    rng = np.random.default_rng(2)
    t = rng.integers(0, 7, size=5)
    _gradcheck_input(lambda x: nn.cross_entropy(x, t), rng.normal(size=(5, 7)))


def test_layernorm_grad():
    rng = np.random.default_rng(3)
    g = nn.Tensor(rng.normal(size=6) + 1.0)
    b = nn.Tensor(rng.normal(size=6))
    _gradcheck_input(lambda x: nn.mse(nn.layernorm(x, g, b), 0.1), rng.normal(size=(4, 6)))


def test_conv2d_grad_stride():
    rng = np.random.default_rng(4)
    w = nn.Tensor(rng.normal(size=(3, 3, 2, 4)) * 0.4)
    b = nn.Tensor(rng.normal(size=4))
    _gradcheck_input(lambda x: nn.mse(nn.conv2d(x, w, b, stride=2), 0.0),
                     rng.normal(size=(2, 6, 6, 2)))


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_promotes_like_matmul(stride):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 6, 6, 2))
    w = rng.normal(size=(3, 3, 2, 3))
    b = rng.normal(size=3)
    mixed = nn.conv2d(nn.Tensor(x.astype(np.float32)), nn.Tensor(w), nn.Tensor(b), stride=stride)
    assert mixed.dtype == nn.matmul(nn.Tensor(x[0, 0].astype(np.float32)), nn.Tensor(w[0, 0])).dtype
    assert mixed.dtype == np.float64
    wide = nn.conv2d(nn.Tensor(x.astype(np.float32).astype(np.float64)), nn.Tensor(w), nn.Tensor(b), stride=stride)
    assert np.array_equal(mixed.data, wide.data)
    single = nn.conv2d(*(nn.Tensor(a.astype(np.float32)) for a in (x, w, b)), stride=stride)
    assert single.dtype == np.float32


def test_conv2d_weight_grad():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(2, 6, 6, 2))
    w = nn.Tensor(rng.normal(size=(3, 3, 2, 3)) * 0.4, requires_grad=True)
    b = nn.Tensor(np.zeros(3), requires_grad=True)
    loss = nn.mse(nn.conv2d(nn.Tensor(x0), w, b), 0.0)
    loss.backward()
    analytic = w.grad.copy()

    def f(a):
        return float(nn.mse(nn.conv2d(nn.Tensor(x0), nn.Tensor(a), nn.Tensor(b.data)), 0.0).data)

    numeric = finite_difference_grad(f, w.data.copy())
    rel = np.abs(analytic - numeric).max() / np.abs(numeric).max()
    assert rel < 1e-6


def _unblocked_conv2d(x, w, b, stride, pad):
    """conv2d's forward before it ran in blocks: one padded copy, nine full-size shifted GEMMs."""
    kh, kw, c, o = w.shape
    n, h, wd, _ = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    rows = n * ho * wo
    y = np.empty((rows, o), dtype=x.dtype)
    scratch = np.empty((rows, c), dtype=x.dtype)
    tmp = np.empty((rows, o), dtype=x.dtype)
    first = True
    for i in range(kh):
        for j in range(kw):
            np.copyto(scratch.reshape(n, ho, wo, c),
                      xp[:, i:i + stride * ho:stride, j:j + stride * wo:stride, :])
            np.matmul(scratch, w[i, j], out=y if first else tmp)
            if not first:
                y += tmp
            first = False
    y += b
    return y.reshape(n, ho, wo, o)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("c", [1, 3, 12])
def test_blocked_conv2d_matches_unblocked_bit_for_bit(c, stride):
    """Over several blocks of images and a ragged last one, every output bit is equal.

    Most inputs are exact zeros, as in pose videos; one output channel has
    only negative weights and a -0 bias, so a product path that left a -0
    where the GEMM gives +0 would show.
    """
    hw, o = 12, 5
    ho = (hw - 1) // stride + 1
    block = nn._CONV_BLOCK_BYTES // (ho * ho * (c + 2 * o) * 4)
    n = 2 * block + block // 2 + 1
    rng = np.random.default_rng(14)
    x = rng.normal(size=(n, hw, hw, c)).astype(np.float32)
    x[rng.uniform(size=x.shape) < 0.8] = 0.0
    w = (0.4 * rng.normal(size=(3, 3, c, o))).astype(np.float32)
    w[..., 0] = -np.abs(w[..., 0])
    b = np.array([-0.0, 0.0, 0.5, -1.5, 0.25], dtype=np.float32)
    got = nn.conv2d(nn.Tensor(x), nn.Tensor(w), nn.Tensor(b), stride=stride).data
    ref = _unblocked_conv2d(x, w, b, stride, 1)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def test_conv1x1_upsample2x_matches_upsampled_conv1x1_bit_for_bit():
    """The output and the grads of x, w and b equal those of conv1x1 on an np.repeat-upsampled x."""
    rng = np.random.default_rng(15)
    x0 = rng.normal(size=(4, 16, 16, 12)).astype(np.float32)
    w0 = (0.3 * rng.normal(size=(1, 1, 12, 6))).astype(np.float32)
    b0 = rng.normal(size=6).astype(np.float32)
    g = rng.normal(size=(4, 32, 32, 6)).astype(np.float32)
    results = []
    for fused in (False, True):
        w, b = nn.Param(w0.copy()), nn.Param(b0.copy())
        if fused:
            x = nn.Tensor(x0.copy(), requires_grad=True)
            y = nn.conv1x1_upsample2x(x, w, b)
        else:
            x = nn.Tensor(np.repeat(np.repeat(x0, 2, axis=1), 2, axis=2), requires_grad=True)
            y = nn.conv1x1(x, w, b)
        y.backward(g)
        gx = x.grad if fused else x.grad.reshape(4, 16, 2, 16, 2, 12).sum(axis=(2, 4))
        results.append([y.data, gx, w.grad, b.grad])
    for ref, got in zip(*results):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("index", [0, -1, slice(1, 3)])
def test_take_grad(index):
    rng = np.random.default_rng(10)
    _gradcheck_input(lambda x: nn.mse(nn.take(x, index), 0.3), rng.normal(size=(2, 4, 3)))


@pytest.mark.parametrize("which", [0, 1, 2], ids=["x", "w", "b"])
def test_conv1x1_upsample2x_and_silu_grad(which):
    rng = np.random.default_rng(6)
    args = [rng.normal(size=(2, 3, 3, 2)), rng.normal(size=(1, 1, 2, 3)), rng.normal(size=3)]
    x0 = args[which]
    args = [nn.Tensor(a) for a in args]

    def loss(t):
        x, w, b = args[:which] + [t] + args[which + 1:]
        return nn.mse(nn.conv1x1_upsample2x(nn.silu(x), w, b), 0.2)

    _gradcheck_input(loss, x0)


def test_attention_block_grad():
    rng = np.random.default_rng(7)
    blk = nn.TransformerBlock(6, rng).astype(np.float64)
    _gradcheck_input(lambda x: nn.mse(blk(x), 0.0), rng.normal(size=(2, 4, 6)), tol=1e-5)


def test_causal_attention_masks_future():
    rng = np.random.default_rng(8)
    attn = nn.SelfAttention(4, rng, causal=True).astype(np.float64)
    x1 = rng.normal(size=(1, 5, 4))
    x2 = x1.copy()
    x2[0, -1] += 10.0  # only the last token changes
    y1 = attn(nn.Tensor(x1)).data
    y2 = attn(nn.Tensor(x2)).data
    assert np.allclose(y1[0, :-1], y2[0, :-1])
    assert not np.allclose(y1[0, -1], y2[0, -1])


def _attention_inputs(rng, n, t, dtype):
    """x (n, t, 5) and the weights of the q, k, v and output projections, of differing widths."""
    shapes = [(n, t, 5), (5, 3), (5, 3), (5, 4), (4, 5)]
    return [rng.normal(size=s).astype(dtype) for s in shapes]


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("which", [0, 1, 2, 3, 4], ids=["x", "q", "k", "v", "o"])
def test_attention_grad(which, causal):
    """The grad of x and of the weight of each projection (q, k, v, output)."""
    rng = np.random.default_rng(11)
    inputs = _attention_inputs(rng, 2, 4, np.float64)
    args = [nn.Tensor(a) for a in inputs]

    def loss(a):
        return nn.mse(nn.attention(*(args[:which] + [a] + args[which + 1:]), causal), 0.1)

    _gradcheck_input(loss, inputs[which])


def _composed_attention(q, k, v, causal):
    """The matmul / softmax / matmul composition at the core of nn.attention."""
    t = q.shape[-2]
    scores = nn.mul(nn.matmul(q, nn.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(q.shape[-1]))
    if causal:
        scores = scores + nn.Tensor(np.triu(np.full((t, t), -1e9, dtype=q.dtype), k=1))
    return nn.matmul(nn.softmax(scores), v)


def _composed_self_attention(x, wq, wk, wv, wo, causal):
    """The unfused ops nn.attention replaces: four projections around _composed_attention."""
    q, k, v = (nn.matmul(x, w) for w in (wq, wk, wv))
    return nn.matmul(_composed_attention(q, k, v, causal), wo)


def _fused_and_composed(t, causal, x_needs_grad=True):
    """Output and grads of nn.attention and of its composition, over several chunks and a ragged one."""
    rows = max(1, nn._ATTENTION_CHUNK_BYTES // (t * t * 4))
    n = 2 * rows + rows // 2 + 1
    rng = np.random.default_rng(12)
    arrays = _attention_inputs(rng, n, t, np.float32)
    g = rng.normal(size=(n, t, 5)).astype(np.float32)
    results = []
    for op in (_composed_self_attention, nn.attention):
        inputs = [nn.Tensor(a.copy(), requires_grad=x_needs_grad or i > 0) for i, a in enumerate(arrays)]
        y = op(*inputs, causal)
        y.backward(g)
        results.append([y.data] + [a.grad for a in inputs])
    return results


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("t", [36, 256])
def test_attention_matches_composition_bit_for_bit(t, causal):
    """The output and all five grads (x, wq, wk, wv, wo) have the bytes of the unfused ops."""
    ref, got = _fused_and_composed(t, causal)
    for r, a in zip(ref, got):
        assert a.dtype == r.dtype and a.shape == r.shape and a.tobytes() == r.tobytes()


@pytest.mark.parametrize("causal", [False, True])
def test_attention_weight_grads_match_composition_when_x_needs_none(causal):
    """With x off the tape, the output and the four weight grads still have the unfused ops' bytes."""
    ref, got = _fused_and_composed(36, causal, x_needs_grad=False)
    assert ref[1] is None and got[1] is None
    for r, a in zip(ref[:1] + ref[2:], got[:1] + got[2:]):
        assert a.dtype == r.dtype and a.shape == r.shape and a.tobytes() == r.tobytes()


@pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "taped"])
def test_attention_forward_allocates_no_full_q_k_or_v(grad):
    """Beside its output, the forward allocates less than one full (N, T, D) q: only chunk buffers."""
    rng = np.random.default_rng(13)
    n, t, d = 4096, 36, 12
    x = nn.Tensor(rng.normal(size=(n, t, d)).astype(np.float32))
    ws = [nn.Param(rng.normal(size=(d, d)).astype(np.float32)) for _ in range(4)]
    tracemalloc.start()
    try:
        with contextlib.nullcontext() if grad else nn.no_grad():
            y = nn.attention(x, *ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.requires_grad == grad
    assert peak - y.data.nbytes < n * t * d * 4 // 2


def test_cross_entropy_uniform_logits():
    logits = nn.Tensor(np.zeros((10, 256)))
    targets = np.arange(10) % 256
    assert abs(float(nn.cross_entropy(logits, targets).data) - np.log(256.0)) < 1e-5


def _textbook_cross_entropy(x, t, g):
    """Loss and x grad (for loss grad g) of -mean(log_softmax(x)[t]), op for op as
    the chain log_softmax -> reshape -> gather -> sum -> mul(1/n) -> mul(-1)."""
    dt = x.dtype
    z = x - x.max(axis=-1, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    flat, rows, idx = y.reshape(-1, y.shape[-1]), np.arange(t.size), t.reshape(-1)
    scale, neg = np.asarray(1.0 / t.size, dt), np.asarray(-1.0, dt)
    loss = (flat[rows, idx].sum() * scale) * neg
    picked = np.broadcast_to((np.asarray(g, dt) * neg) * scale, (t.size,)).astype(dt, copy=True)
    gflat = np.zeros(flat.shape, dt)
    gflat[rows, idx] = picked
    gy = gflat.reshape(y.shape)
    return loss, gy - np.exp(y) * gy.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(5, 7), (2, 11, 3, 256)])
def test_cross_entropy_matches_the_textbook_expression_bit_for_bit(shape, dtype):
    rng = np.random.default_rng(12)
    x = (3.0 * rng.normal(size=shape)).astype(dtype)
    t = rng.integers(0, shape[-1], size=shape[:-1])
    logits = nn.Tensor(x, requires_grad=True)
    loss = nn.cross_entropy(logits, t)
    loss.backward(0.1)  # not 1, so that (g·-1)·(1/n) and -g/n round apart
    want_loss, want_grad = _textbook_cross_entropy(x, t, 0.1)
    assert loss.data.dtype == dtype and loss.data.tobytes() == np.asarray(want_loss).tobytes()
    assert logits.grad.dtype == dtype and logits.grad.tobytes() == want_grad.tobytes()


def test_adam_reduces_quadratic():
    rng = np.random.default_rng(9)
    p = nn.Param(rng.normal(size=(8,)).astype(np.float64))
    opt = nn.Adam({"p": p}, lr=0.1)
    for _ in range(200):
        loss = nn.mse(p, 0.0)
        p.grad = None
        loss.backward()
        opt.step()
    assert float(np.abs(p.data).max()) < 1e-2


def test_grad_accumulation_two_uses():
    # the same tensor used twice must receive the sum of both paths
    x = nn.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = x + x
    loss = nn.sum_(y)
    loss.backward()
    assert np.allclose(x.grad, [2.0, 2.0])


def test_no_grad_records_no_tape():
    rng = np.random.default_rng(11)
    lin = nn.Linear(3, 2, rng).astype(np.float64)
    with nn.no_grad():
        y = nn.relu(lin(nn.Tensor(rng.normal(size=(4, 3)))))
        z = lin.w * 2.0
    for t in (y, z):
        assert t._backward is None
        assert not t.requires_grad


def test_no_grad_restores_flag():
    w = nn.Param(np.ones(2))
    with pytest.raises(RuntimeError, match="boom"):
        with nn.no_grad():
            raise RuntimeError("boom")
    assert (w * 2.0).requires_grad
    with nn.no_grad():
        with nn.no_grad():
            pass
        assert not (w * 2.0).requires_grad  # leaving the inner block keeps the outer one
    assert (w * 2.0).requires_grad


def test_backward_after_no_grad_inference():
    rng = np.random.default_rng(12)
    lin = nn.Linear(3, 2, rng).astype(np.float64)
    x = rng.normal(size=(4, 3))
    opt = nn.Adam(lin.params())

    def grads():
        opt.zero_grad()
        nn.mse(lin(nn.Tensor(x)), 0.5).backward()
        return {k: p.grad.copy() for k, p in lin.params().items()}

    before = grads()
    with nn.no_grad():
        lin(nn.Tensor(x))
    after = grads()
    assert set(after) == {"w", "b"}
    for k in before:
        assert np.array_equal(before[k], after[k])


@pytest.mark.parametrize("frozen", ["w", "b"])
def test_conv1x1_grads_only_what_needs_one(frozen):
    rng = np.random.default_rng(13)
    x = nn.Tensor(rng.normal(size=(2, 3, 3, 4)), requires_grad=True)
    parts = {"w": rng.normal(size=(1, 1, 4, 5)), "b": rng.normal(size=5)}
    parts = {k: nn.Tensor(v) if k == frozen else nn.Param(v) for k, v in parts.items()}
    nn.mse(nn.conv1x1(x, parts["w"], parts["b"]), 0.0).backward()
    assert parts[frozen].grad is None
    assert all(t.grad is not None for k, t in parts.items() if k != frozen)
    assert x.grad is not None


def test_minimize_rejects_untaped_loss():
    p = nn.Param(np.ones(3))
    opt = nn.Adam({"p": p}, lr=0.1)
    with nn.no_grad():
        loss = nn.mse(p, 0.0)
    with pytest.raises(RuntimeError, match="needs no grad"):
        opt.minimize(loss, 0)
    assert np.array_equal(p.data, np.ones(3))
    assert opt.t == 0
