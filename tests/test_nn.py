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


@pytest.mark.parametrize("k, stride", [(3, 2), (1, 1)])
def test_conv2d_bias_map_is_added_to_every_image(k, stride):
    """With an (Ho, Wo, O) bias, the output and the grads of x, w and the map equal a zero-bias conv plus the map."""
    rng = np.random.default_rng(16)
    ho = 8 // stride
    x0 = rng.normal(size=(3, 8, 8, 2)).astype(np.float32)
    w0 = (0.4 * rng.normal(size=(k, k, 2, 5))).astype(np.float32)
    m0 = rng.normal(size=(ho, ho, 5)).astype(np.float32)
    g = rng.normal(size=(3, ho, ho, 5)).astype(np.float32)
    results = []
    for folded in (False, True):
        x, w, m = (nn.Tensor(a.copy(), requires_grad=True) for a in (x0, w0, m0))
        if folded:
            y = nn.conv2d(x, w, m, stride=stride)
        else:
            y = nn.conv2d(x, w, nn.Tensor(np.zeros(5, dtype=np.float32)), stride=stride) + m
        y.backward(g)
        results.append([y.data, x.grad, w.grad, m.grad])
    for ref, got in zip(*results):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def _pointwise_reference(x, w, b, g):
    """A pointwise conv's output and x, w, b grads as plain numpy GEMMs over the channel axis."""
    c, o = w.shape[2:]
    xm, wm, gm = x.reshape(-1, c), w.reshape(c, o), g.reshape(-1, o)
    return [(xm @ wm + b).reshape(g.shape), (gm @ wm.T).reshape(x.shape),
            (xm.T @ gm).reshape(w.shape), gm.sum(axis=0)]


@pytest.mark.parametrize("shape, o", [((72, 64, 64, 12), 6), ((72, 16, 16, 48), 24), ((72, 32, 32, 24), 12)],
                         ids=["out_proj", "up2", "up1"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv1x1_matches_the_plain_gemms_bit_for_bit(shape, o, dtype):
    """conv1x1 at the denoiser's pointwise shapes: y = X W + b, gx = G Wᵀ, gw = Xᵀ G, gb = Σ G."""
    rng = np.random.default_rng(14)
    x0 = rng.normal(size=shape).astype(dtype)
    w0 = (0.3 * rng.normal(size=(1, 1, shape[-1], o))).astype(dtype)
    b0 = rng.normal(size=o).astype(dtype)
    g = rng.normal(size=shape[:3] + (o,)).astype(dtype)
    x, w, b = (nn.Tensor(a, requires_grad=True) for a in (x0, w0, b0))
    y = nn.conv1x1(x, w, b)
    y.backward(g)
    for ref, got in zip(_pointwise_reference(x0, w0, b0, g), [y.data, x.grad, w.grad, b.grad]):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_upblock_matches_the_upsample_first_conv_within_rounding():
    """UpBlock's output has the bits of conv1x1 on an np.repeat-upsampled x. Its grads sum g over
    each 2x2 block before the GEMMs, not after, so each is within 8 eps of its sum of |terms|:
    Σ|g| for b, the block sums of |g| times |w|ᵀ for x, and |x|ᵀ times those for w."""
    rng = np.random.default_rng(15)
    arrays = [rng.normal(size=(4, 16, 16, 12)), 0.3 * rng.normal(size=(1, 1, 12, 6)),
              rng.normal(size=6), rng.normal(size=(4, 32, 32, 6))]
    arrays = [a.astype(np.float32) for a in arrays]
    for dtype in (np.float32, np.float64):
        _check_upblock_against_upsample_first(*(a.astype(dtype) for a in arrays))


def _check_upblock_against_upsample_first(x0, w0, b0, g):
    up = nn.UpBlock(12, 6, np.random.default_rng(0))
    up.proj.w.data, up.proj.b.data = w0, b0
    x = nn.Tensor(x0, requires_grad=True)
    y = up(x)
    y.backward(g)
    y_ref, gx_ref, gw_ref, gb_ref = _pointwise_reference(
        np.repeat(np.repeat(x0, 2, axis=1), 2, axis=2), w0, b0, g)
    assert y.data.dtype == y_ref.dtype and y.data.tobytes() == y_ref.tobytes()

    def blocks(a):  # the sum of each 2x2 block
        return a.reshape(4, 16, 2, 16, 2, -1).sum(axis=(2, 4))

    abs_g = blocks(np.abs(g)).reshape(-1, 6)
    checks = [(x.grad, blocks(gx_ref), abs_g @ np.abs(w0).reshape(12, 6).T),
              (up.proj.w.grad, gw_ref, np.abs(x0).reshape(-1, 12).T @ abs_g),
              (up.proj.b.grad, gb_ref, abs_g.sum(axis=0))]
    eps = np.finfo(g.dtype).eps
    for got, ref, terms in checks:
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert (np.abs(got - ref) <= 8 * eps * terms.reshape(ref.shape)).all()


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
    target = rng.normal(size=(2, 6, 6, 3))  # not constant, so g differs within each 2x2 block

    def loss(t):
        x, w, b = args[:which] + [t] + args[which + 1:]
        return nn.mse(nn.upsample2x(nn.conv1x1(nn.silu(x), w, b)), target)

    _gradcheck_input(loss, x0)


def test_attention_block_grad():
    rng = np.random.default_rng(7)
    blk = nn.TransformerBlock(6, rng).astype(np.float64)
    _gradcheck_input(lambda x: nn.mse(blk(x), 0.0), rng.normal(size=(2, 4, 6)), tol=1e-5)


def test_causal_attention_masks_future():
    rng = np.random.default_rng(8)
    attn = nn.SelfAttention(4, rng, causal=True).astype(np.float64)
    ln = nn.LayerNorm(4).astype(np.float64)
    x1 = rng.normal(size=(1, 5, 4))
    x2 = x1.copy()
    x2[0, -1] += 10.0  # only the last token changes
    y1 = attn(nn.Tensor(x1), ln).data
    y2 = attn(nn.Tensor(x2), ln).data
    assert np.allclose(y1[0, :-1], y2[0, :-1])
    assert not np.allclose(y1[0, -1], y2[0, -1])


ATTENTION_ARGS = ["x", "pos", "g", "b", "q", "k", "v", "o"]


def _attention_inputs(rng, shape, dtype):
    """x of `shape` (..., 5), its (T, 5) position table, γ and β, and the weights of the q, k, v
    and output projections, of differing widths."""
    t = shape[1]
    shapes = [shape, (t, 5), (5,), (5,), (5, 3), (5, 3), (5, 4), (4, 5)]
    arrays = [rng.normal(size=s).astype(dtype) for s in shapes]
    arrays[2] += 1.0  # γ around one
    return arrays


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("which", range(8), ids=ATTENTION_ARGS)
def test_attention_grad(which, causal):
    """The grad of x, of pos, of γ and β, and of the weight of each projection (q, k, v, output).

    x is (B, T, S, C) with S = 3: attention runs over axis 1 of each of the B·S sequences.
    """
    rng = np.random.default_rng(11)
    inputs = _attention_inputs(rng, (2, 4, 3, 5), np.float64)
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


def _composed_self_attention(x, pos, gamma, beta, wq, wk, wv, wo, causal):
    """The unfused ops nn.attention replaces: transpose (B, T, S, C) x to (B·S, T, C), add pos,
    layernorm, four projections around _composed_attention, add the residual, transpose back."""
    sequences = x.ndim == 4
    if sequences:
        b, t, s, c = x.shape
        x = nn.transpose(x, (0, 2, 1, 3)).reshape(b * s, t, c)
    h = nn.layernorm(x + pos, gamma, beta)
    q, k, v = (nn.matmul(h, w) for w in (wq, wk, wv))
    y = x + nn.matmul(_composed_attention(q, k, v, causal), wo)
    return nn.transpose(y.reshape(b, s, t, c), (0, 2, 1, 3)) if sequences else y


def _fused_and_composed(t, s, causal, x_needs_grad=True):
    """Output and grads of nn.attention and of its composition, over several chunks and a ragged one.

    With s > 1, x is (B, T, s, 5) and a chunk's rows straddle items; with s = 1 it is (N, T, 5).
    """
    rows = max(1, nn._ATTENTION_CHUNK_BYTES // (t * t * 4))
    n = 2 * rows + rows // 2 + 1
    rng = np.random.default_rng(12)
    shape = (-(-n // s), t, s, 5) if s > 1 else (n, t, 5)
    arrays = _attention_inputs(rng, shape, np.float32)
    g = rng.normal(size=shape).astype(np.float32)
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
    """The output and all eight grads (x, pos, γ, β, wq, wk, wv, wo) have the bytes of the unfused ops,
    for (N, T, C) x and for (B, T, S, C) x."""
    for s in (1, 5):
        ref, got = _fused_and_composed(t, s, causal)
        for r, a in zip(ref, got):
            assert a.dtype == r.dtype and a.shape == r.shape and a.tobytes() == r.tobytes()


@pytest.mark.parametrize("causal", [False, True])
def test_attention_weight_grads_match_composition_when_x_needs_none(causal):
    """With x off the tape, the output and the other seven grads still have the unfused ops' bytes."""
    for s in (1, 5):
        ref, got = _fused_and_composed(36, s, causal, x_needs_grad=False)
        assert ref[1] is None and got[1] is None
        for r, a in zip(ref[:1] + ref[2:], got[:1] + got[2:]):
            assert a.dtype == r.dtype and a.shape == r.shape and a.tobytes() == r.tobytes()


@pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "taped"])
def test_attention_forward_allocates_no_full_q_k_or_v(grad):
    """Beside its output, the forward allocates less than one full (N, T, D) q: only chunk buffers."""
    rng = np.random.default_rng(13)
    n, t, d = 4096, 36, 12
    x = nn.Tensor(rng.normal(size=(n, t, d)).astype(np.float32))
    params = [nn.Param(rng.normal(size=(t, d)).astype(np.float32)), nn.Param(np.ones(d, np.float32)),
              nn.Param(np.zeros(d, np.float32))]
    params += [nn.Param(rng.normal(size=(d, d)).astype(np.float32)) for _ in range(4)]
    tracemalloc.start()
    try:
        with contextlib.nullcontext() if grad else nn.no_grad():
            y = nn.attention(x, *params)
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
