"""The op kernels' worker pool: same bits for any worker count, and how many workers.

Every split op is run at 1, 2 and 3 workers with the split threshold at 0,
so that each op splits; its output and every grad must match the serial
run bit for bit.
"""
import os
import signal
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

from minimanip import nn


@pytest.fixture
def split_counts(monkeypatch):
    """Force every op above the split threshold; record the number of parts of each split."""
    counts = []
    parallel = nn._parallel

    def counting(ranges, fn):
        counts.append(len(ranges))
        parallel(ranges, fn)

    monkeypatch.setattr(nn, "_SPLIT_MIN_SIZE", 0)
    monkeypatch.setattr(nn, "_parallel", counting)
    return counts


def _run(op, arrays, workers, monkeypatch):
    """op's output and the grad of each input, at the given worker count."""
    monkeypatch.setattr(nn, "_WORKERS", workers)
    monkeypatch.setattr(nn, "_pool", None)  # a pool of this many threads
    inputs = [nn.Tensor(a.copy(), requires_grad=True) for a in arrays]
    y = op(*inputs)
    y.backward(np.random.default_rng(9).normal(size=y.shape).astype(y.dtype))
    return [y.data] + [t.grad for t in inputs]


def _assert_same_bits_at_any_worker_count(op, arrays, monkeypatch, counts, worker_counts=(2, 3)):
    ref = _run(op, arrays, 1, monkeypatch)
    assert set(counts) == {1}
    for workers in worker_counts:
        counts.clear()
        got = _run(op, arrays, workers, monkeypatch)
        assert max(counts) > 1, "nothing was split"
        for r, g in zip(ref, got):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert g.tobytes() == r.tobytes()


def _normal(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


@pytest.mark.parametrize("n, hw, c, o, stride", [
    (5, 9, 1, 4, 1),    # one input channel: the product path, one-row weight-grad GEMMs
    (4, 8, 3, 5, 1),    # fewer input channels than taps
    (7, 10, 5, 6, 2),   # stride 2, ragged image and tap splits
    (2, 6, 12, 4, 1),   # fewer images than three workers
    (5, 1, 4, 3, 1),    # one output pixel per image: each part keeps two images
])
def test_conv2d_splits_keep_every_bit(n, hw, c, o, stride, monkeypatch, split_counts):
    rng = np.random.default_rng(n * 100 + c)
    x = _normal(rng, n, hw, hw, c)
    x[rng.uniform(size=x.shape) < 0.5] = 0.0  # exact zeros, as in pose videos
    arrays = [x, _normal(rng, 3, 3, c, o), _normal(rng, o)]
    _assert_same_bits_at_any_worker_count(
        lambda x, w, b: nn.conv2d(x, w, b, stride=stride), arrays, monkeypatch, split_counts)


def test_conv2d_splits_at_the_denoiser_size(monkeypatch, split_counts):
    """The denoiser's 64x64 level (12 channels to 24, stride 2) at the real threshold, same bits split or not."""
    monkeypatch.setattr(nn, "_SPLIT_MIN_SIZE", 2 ** 16)
    rng = np.random.default_rng(2)
    arrays = [_normal(rng, 3, 64, 64, 12), _normal(rng, 3, 3, 12, 24), _normal(rng, 24)]
    _assert_same_bits_at_any_worker_count(
        lambda x, w, b: nn.conv2d(x, w, b, stride=2), arrays, monkeypatch, split_counts)


@pytest.mark.parametrize("n, hw, c, o, stride", [
    (72, 64, 4, 6, 2),
    (72, 16, 8, 8, 1),
])
def test_conv2d_splits_at_real_sizes(n, hw, c, o, stride, monkeypatch, split_counts):
    """Training-batch shapes at the real threshold: every weight-grad GEMM is the serial loop's."""
    monkeypatch.setattr(nn, "_SPLIT_MIN_SIZE", 2 ** 16)
    rng = np.random.default_rng(n + c)
    arrays = [_normal(rng, n, hw, hw, c), _normal(rng, 3, 3, c, o), _normal(rng, o)]
    _assert_same_bits_at_any_worker_count(
        lambda x, w, b: nn.conv2d(x, w, b, stride=stride), arrays, monkeypatch, split_counts)


def test_conv2d_splits_at_the_stem_size(monkeypatch, split_counts):
    """PatchStem's RGB conv at the 192-frame training batch, its (32, 32, 16) coordinate map as the bias."""
    monkeypatch.setattr(nn, "_SPLIT_MIN_SIZE", 2 ** 16)
    rng = np.random.default_rng(195)
    arrays = [_normal(rng, 192, 64, 64, 3), _normal(rng, 3, 3, 3, 16), _normal(rng, 32, 32, 16)]
    _assert_same_bits_at_any_worker_count(
        lambda x, w, b: nn.conv2d(x, w, b, stride=2), arrays, monkeypatch, split_counts)


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("n, t", [(7, 36), (2, 9), (5, 256)])
def test_attention_splits_keep_every_bit(n, t, causal, monkeypatch, split_counts):
    """x as (N, T, C) and as (B, T, S, C) with S = 3, whose rows (b, s) split and chunk across items."""
    for shape in ((n, t, 6), (n, t, 3, 6)):
        rng = np.random.default_rng(t)
        arrays = [_normal(rng, *shape), _normal(rng, t, 6), _normal(rng, 6) + 1.0, _normal(rng, 6)]
        arrays += [_normal(rng, 6, 6) for _ in range(4)]
        split_counts.clear()
        _assert_same_bits_at_any_worker_count(
            lambda *args: nn.attention(*args, causal), arrays, monkeypatch, split_counts)


@pytest.mark.parametrize("with_pos", [True, False], ids=["pos", "no-pos"])
def test_attention_splits_at_the_denoiser_size(with_pos, monkeypatch, split_counts):
    """The denoiser's 64x64 temporal level, a (1, 36, 64·64, 12) view, at the real threshold, and
    TransformerBlock's attention half (no pos) on it: same bits split or not."""
    monkeypatch.setattr(nn, "_SPLIT_MIN_SIZE", 2 ** 16)
    rng = np.random.default_rng(36)
    x, pos = _normal(rng, 1, 36, 64 * 64, 12), _normal(rng, 36, 12)
    arrays = [x] + [pos] * with_pos + [_normal(rng, 12) + 1.0, _normal(rng, 12)]
    arrays += [_normal(rng, 12, 12) for _ in range(4)]

    def op(x, *rest):
        return nn.attention(x, *(rest if with_pos else (None,) + rest))

    _assert_same_bits_at_any_worker_count(op, arrays, monkeypatch, split_counts)


@pytest.mark.parametrize("shape", [(5, 7, 12), (2, 48)])
def test_layernorm_splits_keep_every_bit(shape, monkeypatch, split_counts):
    rng = np.random.default_rng(len(shape))
    arrays = [3.0 * _normal(rng, *shape) + 1.0, _normal(rng, shape[-1]), _normal(rng, shape[-1])]
    _assert_same_bits_at_any_worker_count(nn.layernorm, arrays, monkeypatch, split_counts)


@pytest.mark.parametrize("x_dtype, gamma_dtype", [(np.float32, np.float32), (np.float64, np.float32),
                                                  (np.float32, np.float64)])
def test_layernorm_matches_the_plain_expression_bit_for_bit(x_dtype, gamma_dtype):
    """The in-place forward and backward give the bits of the textbook expressions, dtypes mixed or not."""
    rng = np.random.default_rng(6)
    x = (2.0 * _normal(rng, 3, 5, 16) - 0.5).astype(x_dtype)
    gamma, beta = _normal(rng, 16).astype(gamma_dtype), _normal(rng, 16).astype(gamma_dtype)
    g = _normal(rng, 3, 5, 16).astype(np.result_type(x, gamma))
    xn = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.mean(np.square(xn), axis=-1, keepdims=True) + 1e-5)
    xn *= inv
    gx = g * gamma
    ref = [xn * gamma + beta,
           (gx - gx.mean(axis=-1, keepdims=True) - xn * (gx * xn).mean(axis=-1, keepdims=True)) * inv,
           (g * xn).reshape(-1, 16).sum(axis=0), g.reshape(-1, 16).sum(axis=0)]
    inputs = [nn.Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
    y = nn.layernorm(*inputs)
    y.backward(g)
    for r, got in zip(ref, [y.data] + [t.grad for t in inputs]):
        assert got.dtype == r.dtype and got.tobytes() == r.tobytes()


@pytest.mark.parametrize("op, shapes", [
    (nn.matmul, [(3, 5, 8), (8, 6)]),
    (nn.conv1x1, [(3, 4, 5, 6), (1, 1, 6, 7), (7,)]),
])
def test_row_split_gemms_keep_every_bit(op, shapes, monkeypatch, split_counts):
    rng = np.random.default_rng(len(shapes))
    arrays = [_normal(rng, *s) for s in shapes]
    _assert_same_bits_at_any_worker_count(op, arrays, monkeypatch, split_counts)


@pytest.mark.parametrize("shapes, dtypes", [
    ([(5, 7, 12), (5, 7, 12)], None),
    ([(2, 36, 8, 8, 12), (2, 1, 1, 1, 12)], None),      # VideoDenoiser._add_cond
    ([(11, 36, 12), (36, 12)], None),                   # a (T, C) table on (N, T, C) tokens
    ([(4, 6, 3), ()], None),                            # a 0-d operand
    ([(4, 6, 3), (4, 6, 3)], (np.float64, np.float32)),
    ([(2, 5, 6), (2, 1, 6)], None),                     # fewer rows than three workers
    ([(1, 9, 4), (1, 9, 4)], None),                     # a batch of one splits its second axis
])
def test_add_splits_keep_every_bit(shapes, dtypes, monkeypatch, split_counts):
    rng = np.random.default_rng(len(shapes[0]))
    arrays = [_normal(rng, *s).astype(d) for s, d in zip(shapes, dtypes or (np.float32,) * 2)]
    _assert_same_bits_at_any_worker_count(nn.add, arrays, monkeypatch, split_counts)


def test_add_of_a_tensor_to_itself_keeps_every_bit(monkeypatch, split_counts):
    """Both parents get add's grad whole; the full-size sum in Node.accumulate splits too."""
    rng = np.random.default_rng(4)
    _assert_same_bits_at_any_worker_count(lambda x: x + x, [_normal(rng, 7, 3, 5)],
                                          monkeypatch, split_counts)


def _signed_zeros_and_nans(rng, *shape):
    x = _normal(rng, *shape)
    flat = x.reshape(-1)
    flat[::5], flat[1::5], flat[2::7] = -0.0, 0.0, np.nan
    return x


@pytest.mark.parametrize("shape", [(7, 4, 6), (2, 9, 5), (1, 10, 3)])
def test_relu_splits_keep_every_bit(shape, monkeypatch, split_counts):
    """-0.0, +0.0, negatives and NaN keep the bits of x * (x > 0) and g * (y > 0)."""
    rng = np.random.default_rng(shape[0])
    x = _signed_zeros_and_nans(rng, *shape)
    _assert_same_bits_at_any_worker_count(nn.relu, [x], monkeypatch, split_counts)
    y, gx = _run(nn.relu, [x], 3, monkeypatch)
    g = np.random.default_rng(9).normal(size=shape).astype(np.float32)  # as _run draws it
    assert y.tobytes() == (x * (x > 0)).tobytes()
    assert gx.tobytes() == (g * (y > 0)).tobytes()
    assert np.signbit(y[x < 0]).all() and np.isnan(y[np.isnan(x)]).all()


@pytest.mark.parametrize("shape, axes", [
    ((2, 5, 4, 3, 6), (0, 2, 3, 1, 4)),   # frames (b, f, h, w, c) into (b, h, w, f, c)
    ((2, 4, 3, 5, 6), (0, 3, 1, 2, 4)),   # and back
    ((1, 5, 4, 3, 6), (0, 2, 3, 1, 4)),   # a batch of one
    ((2, 6, 5), (2, 0, 1)),               # fewer rows than three workers
])
def test_transpose_splits_keep_every_bit(shape, axes, monkeypatch, split_counts):
    rng = np.random.default_rng(len(shape))
    _assert_same_bits_at_any_worker_count(lambda x: nn.transpose(x, axes), [_normal(rng, *shape)],
                                          monkeypatch, split_counts)


@pytest.mark.parametrize("b", [1, 2])
def test_elementwise_splits_at_the_denoiser_size(b, monkeypatch, split_counts):
    """At the denoiser's 64x64 level and the real threshold: its conditioning add and relu, and two transposes."""
    monkeypatch.setattr(nn, "_SPLIT_MIN_SIZE", 2 ** 16)
    f, c = 36, 12

    def level(h, cond):
        h = nn.relu(h.reshape(b, f, 64, 64, c) + cond.reshape(b, 1, 1, 1, c))
        t = nn.transpose(h, (0, 2, 3, 1, 4))
        return nn.transpose(t, (0, 3, 1, 2, 4)) + h

    rng = np.random.default_rng(b)
    arrays = [_normal(rng, b * f, 64, 64, c), _normal(rng, b, c)]
    _assert_same_bits_at_any_worker_count(level, arrays, monkeypatch, split_counts)


def test_splits_keep_every_bit_under_frequent_thread_switches(monkeypatch, split_counts):
    """More workers than cores, with the interpreter switching threads every microsecond."""
    def block(x, w, b, gamma, beta, *attention):
        h = nn.conv2d(x, w, b)
        n, hh, ww, o = h.shape
        t = nn.layernorm(h, gamma, beta).reshape(2, n // 2, hh * ww, o)  # 2 items of 3 frames
        return nn.attention(t, *attention, causal=True)

    rng = np.random.default_rng(8)
    arrays = [_normal(rng, 6, 5, 5, 3), _normal(rng, 3, 3, 3, 4), _normal(rng, 4),
              _normal(rng, 4), _normal(rng, 4), _normal(rng, 3, 4), _normal(rng, 4), _normal(rng, 4)]
    arrays += [_normal(rng, 4, 4) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _assert_same_bits_at_any_worker_count(block, arrays, monkeypatch, split_counts,
                                              worker_counts=(len(nn._allowed_cpus()) + 2,) * 3)
    finally:
        sys.setswitchinterval(interval)


def _env(src, **blas):
    """The environment without the BLAS thread variables, plus blas and PYTHONPATH=src."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {**env, **blas, "PYTHONPATH": src}


def _numpy_uses_openblas():
    try:
        return "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy too old to report its build as a dict
        return False


def test_import_sets_blas_to_one_thread():
    """Importing nn leaves BLAS on one thread and the pool one worker per allowed core.

    Checked with none of the BLAS thread variables set and with
    OPENBLAS_NUM_THREADS=2, which OpenBLAS reads when it loads; BLAS reports
    its count through the getter that matches nn's setter.
    """
    script = ("import os\n"
              "from minimanip import nn\n"
              "blas = nn._numpy_blas()\n"
              "getters = [getattr(blas, name.replace('_set_', '_get_'), None) for name in nn._BLAS_SETTERS]\n"
              "getter = next((g for g in getters if g is not None), None)\n"
              "if getter is None:  # a BLAS nn cannot set keeps the pool at one worker\n"
              "    assert nn._WORKERS == 1, nn._WORKERS\n"
              "else:\n"
              "    assert getter() == 1, getter()\n"
              "    assert nn._WORKERS == len(os.sched_getaffinity(0)), nn._WORKERS\n"
              "print('getter' if getter else 'none')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nn.__file__)))
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=_env(src, **blas), timeout=120)
        assert done.returncode == 0, (blas, done.stderr)
        if _numpy_uses_openblas():
            assert done.stdout.split() == ["getter"], blas


def test_a_blas_without_a_setter_keeps_one_worker(monkeypatch):
    """A BLAS with no setter nn knows (MKL, Accelerate) threads by itself: the pool gets one worker."""
    monkeypatch.setattr(nn, "_allowed_cpus", lambda: {0, 1, 2})
    assert nn._pin_blas(types.SimpleNamespace()) == 1
    assert nn._pin_blas(None) == 1  # numpy's BLAS could not be opened
    calls = []

    def openblas_set_num_threads(n):  # a distro build's name
        calls.append(n)

    distro = types.SimpleNamespace(openblas_set_num_threads=openblas_set_num_threads)
    assert nn._pin_blas(distro) == 3 and calls == [1]


def test_import_starts_no_thread():
    """Importing every module starts no thread: the pool starts on the first split."""
    script = ("import sys, threading\n"
              "import minimanip.cli, minimanip.pipeline\n"
              "from minimanip import nn\n"
              "assert nn._pool is None and 'concurrent.futures' not in sys.modules\n"
              "assert threading.active_count() == 1, threading.enumerate()\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nn.__file__)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_env(src), timeout=120)
    assert done.returncode == 0, done.stderr


def test_a_forked_child_makes_its_own_pool():
    """A child forked after the pool started splits ops with threads of its own."""
    script = ("import multiprocessing, numpy as np\n"
              "from minimanip import nn\n"
              "nn._WORKERS = 2\n"
              "def split():\n"
              "    done = []\n"
              "    nn._parallel([(0, 1), (1, 2)], lambda lo, hi, slot: done.append(slot))\n"
              "    assert sorted(done) == [0, 1]\n"
              "split()\n"
              "child = multiprocessing.get_context('fork').Process(target=split, daemon=True)\n"
              "child.start()\n"
              "child.join(30)\n"
              "assert child.exitcode == 0, child.exitcode\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nn.__file__)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("failing", [{0}, {1}, {2}, {1, 2}, {0, 1, 2}])
def test_an_exception_in_any_part_reaches_the_caller(failing):
    """The first failing part's exception is raised after every part has finished."""
    finished = []

    def fn(lo, hi, slot):
        if slot in failing:
            raise ValueError(f"part {slot}")
        finished.append(slot)

    with pytest.raises(ValueError, match=f"part {min(failing)}"):
        nn._parallel([(0, 1), (1, 2), (2, 3)], fn)
    assert sorted(finished) == sorted({0, 1, 2} - failing)
    finished.clear()
    nn._parallel([(0, 1), (1, 2), (2, 3)], lambda lo, hi, slot: finished.append(slot))
    assert sorted(finished) == [0, 1, 2]  # the pool still works, and no stale exception is raised


def test_an_interrupt_while_waiting_returns_after_every_part():
    """A KeyboardInterrupt in the calling thread is raised only once no part is still writing."""
    assert threading.current_thread() is threading.main_thread()
    finished = []

    def fn(lo, hi, slot):
        if slot == 1:
            time.sleep(0.05)  # the calling thread is waiting by now
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.2)
            finished.append(slot)

    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            nn._parallel([(0, 1), (1, 2)], fn)
    finally:
        signal.signal(signal.SIGINT, handler)
    assert finished == [1]
    finished.clear()
    nn._parallel([(0, 1), (1, 2)], lambda lo, hi, slot: finished.append(slot))
    assert sorted(finished) == [0, 1]
