"""Minimal reverse-mode autodiff on numpy, with just the ops the models need.

The tape is kept apart from the data. A Tensor holds its array and, if it
needs a grad, a Node; the Node holds the backward closure, the parents'
Nodes and the grad. Each closure captures only what its backward reads:
arrays, shapes and parent Nodes, never a Tensor. add, reshape, transpose,
concat, take and sum_ keep no activation, cross_entropy is one op that keeps
its log-probabilities, relu keeps its output (which the conv or matmul that
reads it keeps too), and mul, matmul and the convolutions keep an operand
only for the grad that reads it. So an activation that no backward reads is
freed as soon as the forward pass drops it. attention is the one pre-norm
residual self-attention op, x + attn(layernorm(x + pos)) over axis 1 of a
(B, T, S, C) or (N, T, C) x, and its tape keeps only x, pos, γ, β and the
four projection weights: it runs over chunks of the B·S sequences,
gathering each chunk's tokens from x's own layout, so its normalized input,
q, k, v, (rows, T, T) scores and attention output live in chunk-sized
buffers, and its backward recomputes them chunk by chunk. backward() walks
the Nodes in reverse topological order.
Inference runs inside ``with no_grad():``, where ops record no tape.
Convolutions are a sum of kh*kw shifted GEMMs. The forward runs over
cache-sized blocks of whole images, padding each block into one reused
buffer, and with one input channel a tap is a plain product, not a K=1
GEMM. The backward pass re-reads the padded input instead of retaining the
shifted copies. conv1x1 is matmul plus add; UpBlock runs it before
upsample2x, on a quarter of the rows, and tapes only the low-res input.

The kernels of conv2d, attention, layernorm, the flat GEMMs (matmul with
a 2-D right operand) and the elementwise add, relu and transpose
split their independent rows (images, attention chunks, normalized rows,
GEMM rows, rows of the output's first axis longer than one) over a thread
pool; add's split covers its broadcasts and the grad sums of
Node.accumulate, relu's its forward and backward. This module owns the
process's thread set-up: importing it sets numpy's OpenBLAS to one thread
through OpenBLAS's own setter, whatever the environment asks for, and the
pool then has one worker per core the process may run on. A BLAS with no
such setter (MKL, Accelerate) is left to thread by itself, and there the
pool has one worker, the calling thread. Ops under _SPLIT_MIN_SIZE
elements stay serial. A split never
reorders the arithmetic of a row, so outputs and grads have the same bits
for any worker count. Reductions over rows (weight, bias, gamma, beta and
position-table grads, add's unbroadcast sums) are never split by rows:
conv2d's weight grad splits by taps, and each tap's grad is the serial
loop's one GEMM over every row. Pool threads allocate no output and no full-size scratch
buffer: the calling thread allocates them, and each part writes its rows
of them, since what a pool thread frees stays in that thread's malloc
arena.
Everything is deterministic given a seeded numpy Generator.
"""
from __future__ import annotations

import contextlib
import ctypes
import math
import os

import numpy as np


class Node:
    """One taped value: how to pass its grad on, and to whom.

    A leaf Tensor that needs a grad has a Node with no backward and no
    parents; the grad it collects is the Tensor's ``.grad``.
    """

    __slots__ = ("backward", "parents", "grad")

    def __init__(self, backward=None, parents=()):
        self.backward = backward
        self.parents = parents
        self.grad = None

    def accumulate(self, g):
        # Stored by reference, so one array may be the grad of several Nodes
        # (add hands g on whole to both parents). That is safe because no grad
        # is written in place: sums are out of place, and every backward writes
        # only into arrays it allocated itself.
        if self.grad is None:
            self.grad = g
        else:
            self.grad = _sum(self.grad, g)


class Tensor:
    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self._node = Node() if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def requires_grad(self):
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g):
        self._node.grad = g

    # perfbench/tracer.py reads and wraps _backward on every taped output
    @property
    def _backward(self):
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn):
        self._node.backward = fn

    def backward(self, grad=None):
        if self._node is None:
            raise RuntimeError("backward() on a tensor that needs no grad: it was computed "
                               "under no_grad() or from inputs that need none")
        if grad is None:
            grad = np.ones_like(self.data)
        topo, seen = [], set()
        stack = [(self._node, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._node.grad = np.asarray(grad, dtype=self.data.dtype)
        for node in reversed(topo):
            if node.backward is not None and node.grad is not None:
                node.backward(node.grad)
                node.backward = None  # release closures and grads as we go
                node.parents = ()
                node.grad = None

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dt = like.data.dtype if like is not None else np.float32
    return Tensor(np.asarray(x, dtype=dt))


def _unbroadcast(g, shape):
    """Sum grad g down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Within the block, ops build no tape and their results need no grad."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _make(data, parents, backward, requires_grad=None):
    out = Tensor(data)
    if not _grad_enabled:
        return out
    nodes = tuple(p._node for p in parents if p._node is not None)
    if requires_grad is None:
        requires_grad = bool(nodes)
    if requires_grad:
        out._node = Node(backward, nodes)
    return out


def _saved(a, needed):
    """Array a if a backward reads it, else a zero-stride stand-in of its shape and dtype."""
    return a if needed else np.broadcast_to(np.zeros((), a.dtype), a.shape)


# -- the worker pool -----------------------------------------------------
#
# The op kernels split independent rows (images, attention chunks, layernorm
# rows, GEMM rows, elementwise output rows) over a pool of threads; numpy
# and BLAS release the GIL while they work. Each row keeps its order of
# operations, so the result has the same bits for any worker count. A
# worker runs numpy only: it never calls an op, the tape or the pool, and it
# writes into arrays that the calling thread allocated.

# OpenBLAS's own thread-count setters, as the numpy 2.x wheels, the numpy
# 1.24-1.26 wheels and distro builds name them: the first one found is called.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads")


def _allowed_cpus():
    try:
        return os.sched_getaffinity(0)
    except AttributeError:  # no affinity mask on this platform
        return range(os.cpu_count() or 1)


def _numpy_blas():
    """numpy's linalg extension, opened so that its BLAS's symbols can be looked up, or None."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None


def _pin_blas(blas):
    """Set blas to one thread through its own setter, and return the op pool's worker count.

    One worker per allowed core once BLAS is on one thread. A BLAS with no
    setter found (MKL, Accelerate) threads by itself, and ops split on top
    of it ran slower than serial ones, so there the pool has one worker.
    """
    for name in _BLAS_SETTERS:
        setter = getattr(blas, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return max(1, len(_allowed_cpus()))
    return 1


_WORKERS = _pin_blas(_numpy_blas())

# Ops that touch fewer elements than this stay in the calling thread: a
# split costs tens of microseconds. That keeps the miniature test models and
# the rt1 decode serial.
_SPLIT_MIN_SIZE = 2 ** 16

_pool = None  # a ThreadPoolExecutor, made on the first split: importing starts no thread


def _forget_pool():
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_forget_pool)


def _split(n, size, grain=1):
    """Bounds of the contiguous ranges over which an op of `size` elements splits n rows.

    One range per worker, each at least `grain` rows long, or just (0, n)
    when the op is small or there is one worker.
    """
    parts = max(1, min(n // grain, _WORKERS)) if size >= _SPLIT_MIN_SIZE else 1
    return [(n * s // parts, n * (s + 1) // parts) for s in range(parts)]


def _run_part(job):
    # Empty the job before running it, so that the pool thread holds no
    # reference to fn once the part is done: every array is freed by the caller.
    fn, lo, hi, slot = job
    job.clear()
    fn(lo, hi, slot)


def _parallel(ranges, fn):
    """Run fn(lo, hi, slot) for each (lo, hi) in ranges; slot is its index.

    The calling thread runs slot 0 and the pool the others. Returns when all
    are done, even if interrupted; the first exception, in slot order, is
    raised here. Ops call it from one thread at a time, as they use the tape.
    """
    global _pool
    if len(ranges) == 1:
        fn(*ranges[0], 0)
        return
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(max(_WORKERS, len(ranges)) - 1, thread_name_prefix="minimanip-nn")
    futures = [_pool.submit(_run_part, [fn, lo, hi, slot])
               for slot, (lo, hi) in enumerate(ranges[1:], 1)]
    try:
        fn(*ranges[0], 0)
    finally:  # no part may still be writing when this returns or raises
        interrupt = None
        for future in futures:
            while True:
                try:
                    future.exception()
                    break
                except KeyboardInterrupt as exc:
                    interrupt = exc
        if interrupt is not None:
            raise interrupt
    for future in futures:
        future.result()


# -- elementwise --------------------------------------------------------
#
# add, relu, transpose's copy and the grad sums run row by row: the calling
# thread allocates the output, and each part writes its rows of it.

def _rows(fn, out, *operands):
    """out after fn(*operands, out=out), with out's rows split over the pool.

    The rows are those of out's first axis longer than one, so that a batch
    of one still splits. An operand that broadcasts along that axis is
    passed whole to every part.
    """
    if out.ndim == 0:
        fn(*operands, out=out)
        return out
    axis = 0
    while axis < out.ndim - 1 and out.shape[axis] == 1:
        axis += 1

    def part(lo, hi, _):
        cut = []
        for a in operands:
            k = axis - (out.ndim - a.ndim)  # out's split axis in a, numpy aligning the last axes
            cut.append(a[(slice(None),) * k + (slice(lo, hi),)] if k >= 0 and a.shape[k] != 1 else a)
        fn(*cut, out=out[(slice(None),) * axis + (slice(lo, hi),)])

    _parallel(_split(out.shape[axis], out.size), part)
    return out


def _sum(a, b):
    """a + b for arrays a and b, as numpy broadcasts and promotes it."""
    return _rows(np.add, np.empty(np.broadcast(a, b).shape, np.result_type(a, b)), a, b)


def _copyto(src, out):
    np.copyto(out, src)


def _contiguous(a):
    """a if it is C-contiguous, else a C-contiguous copy, as np.ascontiguousarray."""
    return a if a.flags.c_contiguous else _rows(_copyto, np.empty(a.shape, a.dtype), a)


def add(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    na, nb, a_shape, b_shape = a._node, b._node, a.shape, b.shape

    def bwd(g):
        ga = _unbroadcast(g, a_shape) if na is not None else None
        gb = _unbroadcast(g, b_shape) if nb is not None else None
        if ga is not None:
            na.accumulate(ga)
        if gb is not None:
            nb.accumulate(gb)

    return _make(_sum(a.data, b.data), (a, b), bwd)


def mul(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    na, nb = a._node, b._node
    ad, bd = _saved(a.data, nb is not None), _saved(b.data, na is not None)

    def bwd(g):
        if na is not None:
            na.accumulate(_unbroadcast(g * bd, ad.shape))
        if nb is not None:
            nb.accumulate(_unbroadcast(g * ad, bd.shape))

    return _make(a.data * b.data, (a, b), bwd)


def _sigmoid(z):
    # exp(-|z|) never overflows; branch-free and vectorized
    e = np.exp(-np.abs(z))
    denom = 1.0 + e
    return np.where(z >= 0, 1.0 / denom, e / denom)


def silu(x):
    nx, xd = x._node, x.data
    s = _sigmoid(xd)

    def bwd(g):
        nx.accumulate(g * (s * (1.0 + xd * (1.0 - s))))

    return _make(xd * s, (x,), bwd)


def _mask_and_multiply(a, b, mask, out):
    np.greater(b, 0, out=mask)
    np.multiply(a, mask, out=out)


def _times_positive(a, b):
    """a * (b > 0) for arrays of one shape, -0.0 for negative a included.

    The mask is allocated before the product, as the plain expression does.
    """
    mask = np.empty(b.shape, bool)
    return _rows(_mask_and_multiply, np.empty(a.shape, np.result_type(a, mask)), a, b, mask)


def relu(x):
    nx, y = x._node, _times_positive(x.data, x.data)

    def bwd(g):
        nx.accumulate(_times_positive(g, y))  # the forward's mask: y > 0 exactly where x > 0

    return _make(y, (x,), bwd)


# -- shape --------------------------------------------------------------

def reshape(x, shape):
    nx, old = x._node, x.shape

    def bwd(g):
        nx.accumulate(g.reshape(old))

    return _make(x.data.reshape(shape), (x,), bwd)


def transpose(x, axes):
    axes = tuple(axes)
    nx, inv = x._node, tuple(np.argsort(axes))

    def bwd(g):
        nx.accumulate(_contiguous(g.transpose(inv)))

    return _make(_contiguous(x.data.transpose(axes)), (x,), bwd)


def concat(xs, axis):
    nodes = [x._node for x in xs]
    offs = np.cumsum([0] + [x.shape[axis] for x in xs])

    def bwd(g):
        for nx, lo, hi in zip(nodes, offs[:-1], offs[1:]):
            if nx is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                nx.accumulate(np.ascontiguousarray(g[tuple(idx)]))

    return _make(np.concatenate([x.data for x in xs], axis=axis), tuple(xs), bwd)


def take(x, index):
    """Index x along axis 1 by an int (which drops the axis) or a slice."""
    idx = (slice(None), index)
    nx, shape = x._node, x.shape

    def bwd(g):
        gx = np.zeros(shape, dtype=g.dtype)
        gx[idx] = g
        nx.accumulate(gx)

    return _make(np.ascontiguousarray(x.data[idx]), (x,), bwd)


# -- reductions ---------------------------------------------------------

def sum_(x, axis=None):
    nx, shape, dtype = x._node, x.shape, x.dtype

    def bwd(g):
        ge = g if axis is None else np.expand_dims(g, axis)
        # in C order: over an inner axis order "K" gives a strided grad, and a
        # GEMM that reads it rounds otherwise than on a C-contiguous one
        nx.accumulate(np.broadcast_to(ge, shape).astype(dtype, order="C"))

    return _make(x.data.sum(axis=axis), (x,), bwd)


def mean(x, axis=None):
    n = x.data.size if axis is None else x.shape[axis]
    return mul(sum_(x, axis=axis), 1.0 / n)


# -- matmul -------------------------------------------------------------

def _gemm(a, b):
    """a @ b for 2-D a and b, with the rows of a split over the pool.

    Each part keeps at least two rows: numpy runs a one-row product as a
    GEMV, which may round differently.
    """
    y = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))

    def rows(lo, hi, _):
        np.matmul(a[lo:hi], b, out=y[lo:hi])

    _parallel(_split(len(a), y.size, 2), rows)
    return y


def matmul(a, b):
    """a @ b. Supports (..., m, k) @ (k, n) and same-leading-batch (..., m, k) @ (..., k, n).

    Weight products (2-D rhs) are flattened into one large GEMM instead of a
    per-slice batched loop.
    """
    flat_rhs = b.ndim == 2 and a.ndim > 2
    if flat_rhs:
        k = a.shape[-1]
        y = _gemm(a.data.reshape(-1, k), b.data).reshape(a.shape[:-1] + (b.shape[-1],))
    else:
        y = np.matmul(a.data, b.data)
    na, nb = a._node, b._node
    ad, bd = _saved(a.data, nb is not None), _saved(b.data, na is not None)

    def bwd(g):
        if na is not None:
            if flat_rhs:
                ga = _gemm(g.reshape(-1, g.shape[-1]), bd.T).reshape(ad.shape)
            else:
                ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)
            na.accumulate(ga)
        if nb is not None:
            if flat_rhs:
                gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)
            nb.accumulate(gb)

    return _make(y, (a, b), bwd)


# -- softmax / attention / losses -----------------------------------------

def _softmax_inplace(y):
    """Overwrite y with its softmax along the last axis; returns y."""
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def softmax(x):
    """Softmax along the last axis."""
    y = _softmax_inplace(x.data.copy())
    nx = x._node

    def bwd(g):
        gy = g * y
        gy -= y * gy.sum(axis=-1, keepdims=True)
        nx.accumulate(gy)

    return _make(y, (x,), bwd)


# Bytes of one chunk's (rows, T, T) score buffer in attention. A buffer that
# stays in cache between the score GEMM, the softmax and p @ v is what makes
# chunking pay. Of 0.5, 1, 2 and 4 MiB, 1 MiB timed fastest at the denoiser's
# 64x64 temporal level and within 3% elsewhere (2-core Xeon, one BLAS thread).
# With the projections inside the chunks, 1 MiB still timed fastest of 0.25,
# 0.5, 1 and 2 MiB at that level (forward 20 against 22-27 ms, batch 2). With
# the whole pre-norm block inside them, 1 and 2 MiB timed within 6% of each
# other at the three temporal levels, and 0.25 and 0.5 MiB 8-53% slower.
_ATTENTION_CHUNK_BYTES = 2 ** 20


def _causal_mask(t, dtype):
    """The (t, t) score mask that hides each token's future."""
    return np.triu(np.full((t, t), -1e9, dtype=dtype), k=1)


def _sequences(a, lo, hi):
    """Rows lo..hi-1 of a (B, T, S, C) array, row b·S + s being a[b, :, s].

    Returns (i, view) for each run of rows with one b: view is that run's
    (rows, T, C) view of a, and i its first row's offset from lo.
    """
    s = a.shape[2]
    if s == 1:
        return [(0, a[lo:hi, :, 0])]
    return [(max(b * s, lo) - lo, a[b, :, max(lo - b * s, 0):min(hi - b * s, s)].swapaxes(0, 1))
            for b in range(lo // s, (hi - 1) // s + 1)]


def _view(buf, m, *shape):
    """The first m rows of a flat chunk buffer, as a C-contiguous (m, *shape) array."""
    return buf[:m * math.prod(shape)].reshape(m, *shape)


def attention(x, pos, gamma, beta, wq, wk, wv, wo, causal=False):
    """Pre-norm residual self-attention over axis 1 of x: x + attn(layernorm(x + pos)).

    x is (B, T, S, C), S sequences of T tokens per item (the denoiser's
    (b, f, h·w, c) view of its frames), or (N, T, C), one sequence per
    item. pos is a (T, C) table or None, layernorm scales by gamma and
    shifts by beta, and attn(h) = softmax(q kᵀ / sqrt(D) + mask) v wo for
    q, k, v = h wq, h wk, h wv, the mask hiding the future if causal. The
    arithmetic runs in the operands' common dtype.

    The rows, the B·S sequences in (b, s) order, are split over the pool,
    and each worker runs over chunks of its rows: it gathers a chunk's
    (rows, T, C) tokens from x, adds pos, normalizes, projects, attends,
    adds the residual and scatters the result into the output. So no
    transposed copy of x and no full-size x + pos, normalized input or
    attention output exists: only one chunk's buffers per worker. The tape
    keeps x, pos, γ, β and the four weights, and backward recomputes each
    chunk. It reduces the weight, γ, β and pos grads in the calling thread,
    each over full-size operands in row order, as the unfused composition
    (transpose, add, layernorm, the four projections around softmax
    attention, add, transpose back) does. Each projection is a GEMM over a
    chunk's rows·T rows, and a GEMM gives each row the same bits however its
    rows are split, as long as no part is a single row (numpy runs that as
    a GEMV). So the output and grads have the bits of that composition.
    """
    xd, pd = x.data, None if pos is None else pos.data
    params = (gamma, beta, wq, wk, wv, wo)
    gd, bd, wqd, wkd, wvd, wod = (a.data for a in params)
    dt = np.result_type(xd, gd, bd, wqd, wkd, wvd, wod, *([] if pd is None else [pd]))
    x4 = xd if xd.ndim == 4 else xd[:, :, None]
    _, t, s, c = x4.shape
    n = len(x4) * s
    d, dv = wqd.shape[1], wvd.shape[1]
    scale = dt.type(1.0 / math.sqrt(d))
    ranges = _split(n, n * t * t, 2 if t == 1 else 1)  # a GEMM of one row would run as a GEMV
    rows = max(1, _ATTENTION_CHUNK_BYTES // (len(ranges) * t * t * dt.itemsize))

    def scratch(*widths):
        """Each worker's flat chunk buffers, one of rows·width elements per width.

        Each width is one array, cut into the workers' shares, so the
        allocations are those of the serial loop.
        """
        ends = np.cumsum([0] + [min(rows, hi - lo) for lo, hi in ranges])
        arrays = [np.empty(ends[-1] * w, dtype=dt) for w in widths]
        return [[a[lo * w:hi * w] for a, w in zip(arrays, widths)] for lo, hi in zip(ends[:-1], ends[1:])]

    def chunks(lo, hi):
        return [(c_lo, min(c_lo + rows, hi)) for c_lo in range(lo, hi, rows)]

    def normalize(c_lo, c_hi, xn, h, iv):
        """Rows c_lo..c_hi-1 of x + pos normalized into xn, and layernorm's output γ·xn + β into h."""
        for i, seq in _sequences(x4, c_lo, c_hi):
            if pd is None:
                np.copyto(xn[i:i + len(seq)], seq)
            else:
                np.add(seq, pd, out=xn[i:i + len(seq)])
        xn2 = xn.reshape(-1, c)
        _normalize(xn2, gd, bd, xn2, h.reshape(-1, c), iv.reshape(-1, 1))

    def attend(h, q, k, kt, v, scores, mask):
        """The probabilities of rows h's tokens, with their q, k, kᵀ and v in the given buffers."""
        h2 = h.reshape(-1, c)
        for a, w in ((q, wqd), (k, wkd), (v, wvd)):
            np.matmul(h2, w, out=a.reshape(len(h2), -1))
        np.copyto(kt, np.swapaxes(k, -1, -2))
        p = np.matmul(q, kt, out=scores)
        p *= scale
        if mask is not None:
            p += mask
        return _softmax_inplace(p)

    out = np.empty(x4.shape, dtype=dt)
    mask = _causal_mask(t, dt) if causal else None
    buffers = scratch(t * c, t * max(c, dv), t, t * d, t * d, d * t, t * dv, t * t)

    def forward(lo, hi, slot):
        xns, hs, ivs, qs, ks, kts, vs, scores = buffers[slot]
        for c_lo, c_hi in chunks(lo, hi):
            m = c_hi - c_lo
            xn, h = _view(xns, m, t, c), _view(hs, m, t, c)
            normalize(c_lo, c_hi, xn, h, _view(ivs, m, t))
            v = _view(vs, m, t, dv)
            p = attend(h, _view(qs, m, t, d), _view(ks, m, t, d), _view(kts, m, d, t), v,
                       _view(scores, m, t, t), mask)
            pv = np.matmul(p, v, out=_view(hs, m, t, dv))  # h is spent
            y = np.matmul(pv.reshape(-1, dv), wod, out=xn.reshape(-1, c)).reshape(m, t, c)
            for (i, seq), (_, dst) in zip(_sequences(x4, c_lo, c_hi), _sequences(out, c_lo, c_hi)):
                np.add(seq, y[i:i + len(seq)], out=dst)

    _parallel(ranges, forward)
    del buffers, mask
    shape, nx, npos = xd.shape, x._node, None if pos is None else pos._node
    ngamma, nbeta, nq, nk, nv, no = (a._node for a in params)

    def bwd(g):
        g4 = g if g.ndim == 4 else g[:, :, None]
        mask = _causal_mask(t, dt) if causal else None

        def full(width):
            return np.empty((n, t, width), dtype=dt)

        # the reductions' full-size operands, in row order: x + pos normalized, 1/sqrt(var + eps),
        # layernorm's output, g, p v, and the grads of q, k, v and layernorm's output
        xn, inv, hs, gy, pv, gq, gk, gv, gh = (full(w) for w in (c, 1, c, c, dv, d, d, dv, c))
        buffers = scratch(t * d, t * d, d * t, t * dv, t * t, t * dv, t * t, d * t, t * c)

        def backward(lo, hi, slot):
            qs, ks, kts, vs, scores, gpvs, score_grads, key_grads, tmps = buffers[slot]
            for c_lo, c_hi in chunks(lo, hi):
                m, rs = c_hi - c_lo, slice(c_lo, c_hi)
                normalize(c_lo, c_hi, xn[rs], hs[rs], inv[rs])
                q, k, kt, v = (_view(qs, m, t, d), _view(ks, m, t, d), _view(kts, m, d, t),
                               _view(vs, m, t, dv))
                p = attend(hs[rs], q, k, kt, v, _view(scores, m, t, t), mask)
                for i, seq in _sequences(g4, c_lo, c_hi):
                    np.copyto(gy[c_lo + i:c_lo + i + len(seq)], seq)
                gpv = _view(gpvs, m, t, dv)  # the grad of p v
                np.matmul(gy[rs].reshape(-1, c), wod.T, out=gpv.reshape(-1, dv))
                np.matmul(p, v, out=pv[rs])
                np.matmul(np.swapaxes(p, -1, -2), gpv, out=gv[rs])
                # the softmax grad, p·(gp - Σ p·gp), in place of gp and then p
                gs = np.matmul(gpv, np.swapaxes(v, -1, -2), out=_view(score_grads, m, t, t))
                gs *= p
                gs -= np.multiply(p, gs.sum(axis=-1, keepdims=True), out=p)
                gs *= scale
                np.matmul(gs, np.swapaxes(kt, -1, -2), out=gq[rs])
                kg = np.matmul(np.swapaxes(q, -1, -2), gs, out=_view(key_grads, m, d, t))
                gk[rs] = np.swapaxes(kg, -1, -2)
                # layernorm output's grad from q, then k, then v, as the projections' sums
                gl, tmp = gh[rs].reshape(-1, c), _view(tmps, m, t, c).reshape(-1, c)
                np.matmul(gq[rs].reshape(-1, d), wqd.T, out=gl)
                for grad, w in ((gk, wkd), (gv, wvd)):
                    gl += np.matmul(grad[rs].reshape(-1, w.shape[1]), w.T, out=tmp)

        _parallel(ranges, backward)
        del buffers
        if no is not None:
            no.accumulate(pv.reshape(-1, dv).T @ gy.reshape(-1, c))
        del pv, gy
        for node, grad in ((nq, gq), (nk, gk), (nv, gv)):
            if node is not None:
                node.accumulate(hs.reshape(-1, c).T @ grad.reshape(-1, grad.shape[-1]))
        del hs, gq, gk, gv
        g2, xn2 = gh.reshape(-1, c), xn.reshape(-1, c)
        if ngamma is not None:
            ngamma.accumulate((g2 * xn2).sum(axis=0))
        if nbeta is not None:
            nbeta.accumulate(g2.sum(axis=0))
        gx = np.empty(x4.shape, dtype=dt)
        buffers = scratch(t * c, t)

        def input_grad(lo, hi, slot):  # layernorm's input grad in place of gh, then x's: g plus that
            tmps, means = buffers[slot]
            for c_lo, c_hi in chunks(lo, hi):
                m, rs = c_hi - c_lo, slice(c_lo, c_hi)
                gs = gh[rs].reshape(-1, c)
                np.multiply(gs, gd, out=gs)
                _normalize_grad(gs, xn[rs].reshape(-1, c), inv[rs].reshape(-1, 1),
                                _view(tmps, m, t, c).reshape(-1, c), _view(means, m, t).reshape(-1, 1))
                for (i, seq), (_, dst) in zip(_sequences(g4, c_lo, c_hi), _sequences(gx, c_lo, c_hi)):
                    np.add(seq, gh[c_lo + i:c_lo + i + len(seq)], out=dst)

        _parallel(ranges, input_grad)
        del buffers, xn, inv
        if npos is not None:
            npos.accumulate(_unbroadcast(gh, pd.shape))
        if nx is not None:
            nx.accumulate(gx.reshape(shape))

    return _make(out.reshape(shape), (x, *params) if pos is None else (x, pos, *params), bwd)


def cross_entropy(logits, targets):
    """Mean NLL of integer `targets` (any shape) under logits (*targets.shape, n_classes).

    One op that keeps only the log-probabilities y. Its backward scatters
    (g·-1)·(1/n) into the target classes, then passes gy - exp(y)·Σgy on.
    """
    targets = np.asarray(targets)
    if logits.shape[:-1] != targets.shape:
        raise ValueError(f"logits of shape {logits.shape} do not match targets of shape {targets.shape}")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    flat = y.reshape(-1, y.shape[-1])
    rows, idx = np.arange(len(flat)), targets.reshape(-1)
    scale, neg = np.asarray(1.0 / len(flat), y.dtype), np.asarray(-1.0, y.dtype)
    nx = logits._node

    def bwd(g):
        gy = np.zeros(flat.shape, dtype=y.dtype)
        gy[rows, idx] = (g * neg) * scale
        gy = gy.reshape(y.shape)
        nx.accumulate(gy - np.exp(y) * gy.sum(axis=-1, keepdims=True))

    return _make((flat[rows, idx].sum() * scale) * neg, (logits,), bwd)


def mse(a, b):
    """Mean squared error over all elements."""
    d = a - _as_tensor(b, like=a)
    return mean(mul(d, d))


# -- normalization ------------------------------------------------------

def _normalize(xs, gd, bd, ns, ys, iv):
    """Rows xs normalized into ns (which may be xs), γ·ns + β into ys, 1/sqrt(var + eps) into iv.

    ys holds the squares before the output, when their dtypes agree.
    """
    np.subtract(xs, xs.mean(axis=-1, keepdims=True, out=iv), out=ns)  # iv holds the mean
    sq = np.square(ns, out=ys) if ys.dtype == ns.dtype else np.square(ns)
    sq.mean(axis=-1, keepdims=True, out=iv)  # then the variance, then 1/sqrt(var + eps)
    iv += 1e-5
    np.sqrt(iv, out=iv)
    np.divide(1.0, iv, out=iv)
    ns *= iv
    np.multiply(ns, gd, out=ys)
    ys += bd


def _normalize_grad(gs, ns, iv, ts, m):
    """Overwrite gs, the rows' g·γ, with their input grad (gs - mean(gs) - ns·mean(gs·ns))·iv.

    ns holds the normalized rows; ts and m are scratch of the shapes of gs and iv.
    """
    np.multiply(gs, ns, out=ts).mean(axis=-1, keepdims=True, out=m)
    np.multiply(ns, m, out=ts)
    gs -= gs.mean(axis=-1, keepdims=True, out=m)
    gs -= ts
    gs *= iv


def layernorm(x, gamma, beta):
    """Normalize over the last axis, then scale/shift.

    The forward allocates the normalized input and the output, squaring into
    the output before it holds γ·xn + β; rows are split over the pool.
    """
    xd, gd, bd = x.data, gamma.data, beta.data
    n = xd.shape[-1]
    x2 = xd.reshape(-1, n)
    xn = np.empty(x2.shape, dtype=xd.dtype)
    inv = np.empty((len(x2), 1), dtype=xd.dtype)
    y = np.empty(x2.shape, dtype=np.result_type(xn, gd, bd))

    def rows(lo, hi, _):
        _normalize(x2[lo:hi], gd, bd, xn[lo:hi], y[lo:hi], inv[lo:hi])

    _parallel(_split(len(x2), x2.size), rows)
    nx, ngamma, nbeta, shape = x._node, gamma._node, beta._node, xd.shape

    def bwd(g):
        g2 = g.reshape(-1, n)
        if ngamma is not None:
            ngamma.accumulate((g2 * xn).sum(axis=0))
        if nbeta is not None:
            nbeta.accumulate(g2.sum(axis=0))
        if nx is None:
            return
        dt = np.result_type(g2, gd, xn)  # as numpy promotes the plain expression
        gx, tmp, means = np.empty(xn.shape, dt), np.empty(xn.shape, dt), np.empty(inv.shape, dt)

        def grad_rows(lo, hi, _):
            np.multiply(g2[lo:hi], gd, out=gx[lo:hi])
            _normalize_grad(gx[lo:hi], xn[lo:hi], inv[lo:hi], tmp[lo:hi], means[lo:hi])

        _parallel(_split(len(gx), gx.size), grad_rows)
        nx.accumulate(gx.reshape(shape))

    return _make(y.reshape(shape), (x, gamma, beta), bwd)


# -- conv / resize ------------------------------------------------------

def conv1x1(x, w, b):
    """Pointwise conv on (N,H,W,C): matmul's one flat GEMM over the channel axis, plus the bias."""
    return add(matmul(x, reshape(w, w.shape[2:])), b)


# Bytes of one block of images in conv2d's forward: its shifted copy of the
# input and two O-wide results. A block that stays in cache across
# the kh*kw taps is what makes blocking pay. On the denoiser's shapes at 72
# frames and the IDM stem at 160, 256 KiB to 1 MiB timed within noise of
# each other and 2 MiB was slower (twice as long at 32x32x24); 512 KiB is
# the middle (2-core Xeon, one BLAS thread). Each worker of the pool gets a
# whole block: at two workers, 256 KiB blocks ran 4 of the 7 denoiser shapes
# slower than 512 KiB ones, two of them slower than one worker did.
_CONV_BLOCK_BYTES = 2 ** 19


def conv2d(x, w, b, stride=1):
    """x (N,H,W,C), w (kh,kw,C,O), b -> (N,Ho,Wo,O), zero-padded by kh // 2 on every side.

    The bias b is (O,), one value per output channel, or an (Ho,Wo,O) map
    added to every image's output, whose grad sums over the images.

    Computed as a sum of kh*kw shifted GEMMs rather than im2col: traffic stays
    proportional to the tensor size instead of kh*kw times it. The forward
    splits the images over the pool; each worker runs over blocks of whole
    images within _CONV_BLOCK_BYTES, each padded into one reused buffer, so
    a block's taps all run in its core's cache. With one input channel a tap
    is a plain product, rounded once as a K=1 GEMM would round it. The
    backward splits the input grad by images and the weight grad by taps,
    each tap one whole (rows, c) GEMM. The output and grads have the bits
    of the unblocked serial loop.
    """
    kh, kw, c, o = w.shape
    per_channel = b.ndim == 1
    if kh == 1 and kw == 1 and stride == 1 and per_channel:
        return conv1x1(x, w, b)
    inputs, nx, nw, nb = (x, w, b), x._node, w._node, b._node
    x, w = x.data, w.data
    n, h, wd, _ = x.shape
    pad = kh // 2
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    rows, hw = n * ho * wo, ho * wo
    grain = 2 if hw == 1 else 1  # a GEMM of one row would run as a GEMV, rounding differently
    out_dtype = np.result_type(x.dtype, w.dtype)  # promotes like matmul
    y = np.empty((n, ho, wo, o), dtype=out_dtype)
    ranges = _split(n, y.size, grain)
    block = max(1, _CONV_BLOCK_BYTES // (hw * (c + 2 * o) * out_dtype.itemsize))

    def scratch(m):
        """One worker's buffers for blocks of up to m images."""
        xp = np.zeros((m, h + 2 * pad, wd + 2 * pad, c), dtype=x.dtype)  # the border stays zero
        # With one input channel the taps are products summed in (O, rows)
        # buffers, so each pass is O long loops rather than rows loops of
        # length O, and the sum is transposed into y.
        acc = np.empty((o, m * hw), dtype=out_dtype) if c == 1 else None
        tmp = np.empty((o, m * hw) if c == 1 else (m * hw, o), dtype=out_dtype)
        return xp, np.empty((m * hw, c), dtype=x.dtype), acc, tmp

    buffers = [scratch(min(block, hi - lo)) for lo, hi in ranges]
    # A GEMM adds its products to +0, so it never yields -0, but a product
    # can; a bias that is never -0 turns every zero of the sum into +0 again.
    bias = b.data + 0

    def images(lo, hi, slot):
        xp, shifted, acc, tmp = buffers[slot]
        for first_image in range(lo, hi, block):
            k = min(block, hi - first_image)
            r = k * hw
            xb, sb = xp[:k], shifted[:r]
            yk = y[first_image:first_image + k]
            yb = yk.reshape(r, o)
            ab, tb = (acc[:, :r], tmp[:, :r]) if c == 1 else (yb, tmp[:r])
            xb[:, pad:pad + h, pad:pad + wd] = x[first_image:first_image + k]
            first = True
            for i in range(kh):
                for j in range(kw):
                    np.copyto(sb.reshape(k, ho, wo, c),
                              xb[:, i:i + stride * ho:stride, j:j + stride * wo:stride, :])
                    if c == 1:
                        np.multiply(w[i, j].T, sb.T, out=ab if first else tb)
                    else:
                        np.matmul(sb, w[i, j], out=ab if first else tb)
                    if not first:
                        ab += tb
                    first = False
            if c == 1:
                yb[...] = ab.T
            yk += bias

    _parallel(ranges, images)
    # the input is read back for the weight grad, the weights for the input grad
    x, w = _saved(x, nw is not None), _saved(w, nx is not None)

    def bwd(g):
        gmat = g.reshape(rows, o)
        taps = [(i, j, (slice(None), slice(i, i + stride * ho, stride),
                        slice(j, j + stride * wo, stride), slice(None)))
                for i in range(kh) for j in range(kw)]
        if nb is not None:
            nb.accumulate(gmat.sum(axis=0) if per_channel else g.sum(axis=0))
        flat = np.empty(rows * c, dtype=x.dtype)  # the serial loop's (rows, c) buffer, shared out
        if nw is not None:
            xp2 = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x
            gw = np.zeros(w.shape, dtype=w.dtype)

            parts = _split(len(taps), g.size)
            # made here, not in the workers: what a pool thread frees stays in its own malloc arena
            bufs = [flat] + [np.empty(rows * c, dtype=x.dtype) for _ in parts[1:]]

            def weight_grad(lo, hi, slot):  # taps lo..hi-1, each the serial loop's whole GEMM
                buf = bufs[slot].reshape(rows, c)
                for i, j, sl in taps[lo:hi]:
                    np.copyto(buf.reshape(n, ho, wo, c), xp2[sl])
                    gw[i, j] += buf.T @ gmat

            _parallel(parts, weight_grad)
            del bufs
            nw.accumulate(gw)
        if nx is None:
            return
        gx = np.zeros((n, h + 2 * pad, wd + 2 * pad, c), dtype=x.dtype)

        def input_grad(lo, hi, _):
            buf = flat[lo * hw * c:hi * hw * c].reshape((hi - lo) * hw, c)
            gs, gxs = gmat[lo * hw:hi * hw], gx[lo:hi]
            for i, j, sl in taps:
                np.matmul(gs, w[i, j].T, out=buf)
                gxs[sl] += buf.reshape(hi - lo, ho, wo, c)

        _parallel(_split(n, g.size, grain), input_grad)
        nx.accumulate(gx[:, pad:gx.shape[1] - pad, pad:gx.shape[2] - pad, :] if pad else gx)

    return _make(y, inputs, bwd)


def upsample2x(x):
    """Nearest-neighbor 2x upsample of (N,H,W,C) x; its backward sums each 2x2 block of the grad."""
    nx, (n, h, w, c) = x._node, x.shape
    y = np.empty((n, h, 2, w, 2, c), dtype=x.dtype)
    y[...] = x.data[:, :, None, :, None, :]

    def bwd(g):
        nx.accumulate(g.reshape(n, h, 2, w, 2, c).sum(axis=(2, 4)))

    return _make(y.reshape(n, 2 * h, 2 * w, c), (x,), bwd)


# -- parameters / modules ------------------------------------------------

class Param(Tensor):
    """Trainable tensor."""

    def __init__(self, data):
        super().__init__(np.asarray(data), requires_grad=True)


class Module:
    """Parameter container; subclasses define fields that are Params or Modules."""

    def params(self, prefix=""):
        out = {}
        for name, v in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(v, Param):
                out[key] = v
            elif isinstance(v, Module):
                out.update(v.params(prefix=key + "."))
            elif isinstance(v, (list, tuple)):
                for i, item in enumerate(v):
                    if isinstance(item, Module):
                        out.update(item.params(prefix=f"{key}.{i}."))
        return out

    def astype(self, dtype):
        """Cast every parameter to dtype in place (models are built float32)."""
        for p in self.params().values():
            p.data = p.data.astype(dtype)
        return self

    def load_state(self, state):
        own = self.params()
        missing = set(own) ^ set(state)
        if missing:
            raise ValueError(f"parameter names do not match checkpoint: {sorted(missing)[:5]}")
        for k, p in own.items():
            if p.data.shape != state[k].shape:
                raise ValueError(f"shape mismatch for {k}: {p.data.shape} vs {state[k].shape}")
            p.data = state[k].astype(p.data.dtype)

    def state(self):
        return {k: p.data.copy() for k, p in self.params().items()}


class Linear(Module):
    def __init__(self, n_in, n_out, rng, scale=None):
        s = scale if scale is not None else math.sqrt(2.0 / n_in)
        self.w = Param(rng.normal(0.0, s, size=(n_in, n_out)).astype(np.float32))
        self.b = Param(np.zeros(n_out, dtype=np.float32))

    def __call__(self, x):
        return matmul(x, self.w) + self.b


class Conv2d(Module):
    """3x3 (or kxk) conv over channels-last maps."""

    def __init__(self, c_in, c_out, rng, k=3, stride=1):
        s = math.sqrt(2.0 / (c_in * k * k))
        self.w = Param(rng.normal(0.0, s, size=(k, k, c_in, c_out)).astype(np.float32))
        self.b = Param(np.zeros(c_out, dtype=np.float32))
        self.stride = stride

    def __call__(self, x):
        return conv2d(x, self.w, self.b, stride=self.stride)


class UpBlock(Module):
    """Nearest 2x upsample and a pointwise channel map, computed as map then upsample."""

    def __init__(self, c_in, c_out, rng):
        self.proj = Conv2d(c_in, c_out, rng, k=1)

    def __call__(self, x):
        return upsample2x(self.proj(x))


class LayerNorm(Module):
    def __init__(self, n):
        self.g = Param(np.ones(n, dtype=np.float32))
        self.b = Param(np.zeros(n, dtype=np.float32))

    def __call__(self, x):
        return layernorm(x, self.g, self.b)


class SelfAttention(Module):
    """The q, k, v and output projections of single-head self-attention over (B, T, D), optionally causal."""

    def __init__(self, d, rng, causal=False):
        s = math.sqrt(1.0 / d)
        self.wq = Param(rng.normal(0.0, s, size=(d, d)).astype(np.float32))
        self.wk = Param(rng.normal(0.0, s, size=(d, d)).astype(np.float32))
        self.wv = Param(rng.normal(0.0, s, size=(d, d)).astype(np.float32))
        self.wo = Param(rng.normal(0.0, s, size=(d, d)).astype(np.float32))
        self.causal = causal

    def __call__(self, x, norm, pos=None):
        """x + attn(norm(x + pos)), as one attention op."""
        return attention(x, pos, norm.g, norm.b, self.wq, self.wk, self.wv, self.wo, self.causal)


class TransformerBlock(Module):
    """Pre-norm attention + MLP block on (B, T, D)."""

    def __init__(self, d, rng, causal=False):
        self.ln1 = LayerNorm(d)
        self.attn = SelfAttention(d, rng, causal=causal)
        self.ln2 = LayerNorm(d)
        self.fc1 = Linear(d, 2 * d, rng)
        self.fc2 = Linear(2 * d, d, rng, scale=math.sqrt(1.0 / (2 * d)))

    def __call__(self, x):
        x = self.attn(x, self.ln1)
        return x + self.fc2(relu(self.fc1(self.ln2(x))))


class Adam:
    """Standard Adam with optional global-norm clipping."""

    def __init__(self, params, lr=1e-3, clip=None):
        self.params = dict(params)
        self.lr = lr
        self.clip = clip
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        self.t += 1
        grads = {k: p.grad for k, p in self.params.items() if p.grad is not None}
        if self.clip is not None:
            norm = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()))
            if norm > self.clip:
                scale = self.clip / (norm + 1e-12)
                grads = {k: g * scale for k, g in grads.items()}
        b1, b2 = 0.9, 0.999
        b1t = 1.0 - b1 ** self.t
        b2t = 1.0 - b2 ** self.t
        for k, g in grads.items():
            p = self.params[k]
            m, v = self.m[k], self.v[k]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + 1e-8)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def minimize(self, loss, it):
        """One training step on a scalar loss; returns it as a float.

        A non-finite loss raises before any gradient is taken, naming step `it`.
        """
        val = float(loss.data)
        if not math.isfinite(val):
            raise RuntimeError(f"numerical divergence at step {it}")
        self.zero_grad()
        loss.backward()
        self.step()
        return val


def sinusoidal_embedding(t, dim):
    """Timestep -> (len(t), dim) sin/cos features (plain ndarray, no grad)."""
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)
