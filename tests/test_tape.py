"""What the autodiff tape keeps, and the gradients it must keep producing.

The digests pin every parameter grad of one seeded forward and backward of
each miniature model, and of a small op graph, bit for bit: a change to how
the tape stores its arrays must not change a single grad bit. They hold for
one numpy build (recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64).
"""
import hashlib
import importlib.util
import os
import subprocess
import sys
import types
import weakref

import numpy as np
import pytest

from minimanip import diffusion, nn, pipeline, policies, prompts
from minimanip import inverse_dynamics as idm


def grad_digest(tensors):
    """sha256 (first 16 hex digits) over the names, shapes, dtypes and bytes of the grads."""
    h = hashlib.sha256()
    for name, t in sorted(tensors.items()):
        g = t.grad
        h.update(name.encode())
        if g is None:
            h.update(b"no grad")
        else:
            g = np.ascontiguousarray(g)
            h.update(f"{g.shape}{g.dtype}".encode())
            h.update(g.tobytes())
    return h.hexdigest()[:16]


def _frames(rng, *lead):
    return rng.uniform(-1.0, 1.0, size=lead + (64, 64, 3)).astype(np.float32)


def _prompt(rng, b=2):
    return rng.normal(size=(b, prompts.EMBED_DIM)).astype(np.float32)


def _bins(rng, *shape):
    return rng.integers(0, 256, size=shape)


def dvg_loss(rng):
    model = diffusion.VideoDenoiser(rng, channels=(2, 3, 4), cond_dim=8, frames=2)
    v = rng.normal(size=(2, 2, 64, 64, 3)).astype(np.float32)
    pose = rng.uniform(size=(2, 2, 64, 64, 1)).astype(np.float32)
    eps = rng.normal(size=v.shape).astype(np.float32)
    pred = model(v, np.array([3, 7]), _prompt(rng), model.pose_features(pose), 10)
    return model, nn.mse(pred, eps)


def idm_loss(rng):
    model = idm.ActionDecoder(rng, d=8, window=3, temporal_blocks=1)
    return model, nn.cross_entropy(model(_frames(rng, 2, 3)), _bins(rng, 2, 2, 3))


def lcbc_loss(rng):
    model = policies.SingleFramePolicy(rng, d=8, blocks=1)
    return model, nn.cross_entropy(model(_frames(rng, 2), _prompt(rng)), _bins(rng, 2, 3))


def rt1_loss(rng):
    model = policies.HistoryPolicy(rng, d=8, blocks=1, history=2)
    return model, nn.cross_entropy(model(_frames(rng, 2, 2), _prompt(rng)), _bins(rng, 2, 3))


def classifier_loss(rng):
    model = pipeline.VariantClassifier(rng, d=8)
    return model, nn.cross_entropy(model(_frames(rng, 2)), rng.integers(0, 16, size=2))


MODEL_LOSSES = {
    "VideoDenoiser": (dvg_loss, "ddc7bc8d857ec7ad"),
    "ActionDecoder": (idm_loss, "5783f2aa407bc6cd"),
    "SingleFramePolicy": (lcbc_loss, "56219a12a3d56648"),
    "HistoryPolicy": (rt1_loss, "59ffada85b2420ef"),
    "VariantClassifier": (classifier_loss, "d62a1df4b49feda9"),
}


@pytest.mark.parametrize("name", sorted(MODEL_LOSSES))
def test_model_grads_are_pinned(name):
    build, digest = MODEL_LOSSES[name]
    model, loss = build(np.random.default_rng(3))
    loss.backward()
    assert grad_digest(model.params()) == digest


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("name", sorted(MODEL_LOSSES))
def test_model_grads_are_pinned_when_every_op_splits(name, workers, monkeypatch):
    """The same grad bits when every op splits its rows over the worker pool."""
    monkeypatch.setattr(nn, "_WORKERS", workers)
    monkeypatch.setattr(nn, "_pool", None)
    monkeypatch.setattr(nn, "_SPLIT_MIN_SIZE", 0)
    build, digest = MODEL_LOSSES[name]
    model, loss = build(np.random.default_rng(3))
    loss.backward()
    assert grad_digest(model.params()) == digest


def op_graph():
    """A loss over broadcasting add/mul, a reused tensor, transpose, concat/take and a stride-2 conv.

    Returns the leaves, the loss and a weak reference to the array of an add
    output that only a transpose reads.
    """
    rng = np.random.default_rng(5)
    leaves = {
        "x": nn.Tensor(rng.normal(size=(2, 4, 5, 3)), requires_grad=True),
        "shift": nn.Tensor(rng.normal(size=(3,)), requires_grad=True),
        "gain": nn.Tensor(rng.normal(size=(1, 4, 1, 1)), requires_grad=True),
        "w": nn.Tensor(0.4 * rng.normal(size=(3, 3, 6, 4)), requires_grad=True),
        "b": nn.Tensor(rng.normal(size=(4,)), requires_grad=True),
    }
    s = leaves["x"] + leaves["shift"]
    kept = weakref.ref(s.data)
    t = nn.transpose(s, (0, 2, 1, 3))                # (2, 5, 4, 3)
    m = nn.transpose(t * leaves["gain"].reshape(1, 1, 4, 1), (0, 2, 1, 3))
    both = nn.concat([m, nn.silu(m)], axis=-1)      # m is read twice
    h = nn.take(both, slice(0, 3)) + nn.take(both, slice(1, 4))
    y = nn.conv2d(h, leaves["w"], leaves["b"], stride=2)
    return leaves, nn.mse(y, 0.25), kept


OP_GRAPH_DIGEST = "dd3d040e24af5024"


def test_op_graph_grads_are_pinned():
    leaves, loss, _ = op_graph()
    loss.backward()
    assert grad_digest(leaves) == OP_GRAPH_DIGEST


def test_shape_op_input_is_freed_after_forward():
    """An add output that only a transpose reads dies with the forward pass."""
    leaves, loss, kept = op_graph()
    assert kept() is None
    loss.backward()
    assert grad_digest(leaves) == OP_GRAPH_DIGEST


def tape_closures(loss):
    """Every backward closure on the tape that ends at loss."""
    closures, seen, stack = [], set(), [loss._node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.backward is not None:
            closures.append(node.backward)
        stack.extend(node.parents)
    return closures


def closure_arrays(fn, seen=None):
    """Every array a closure holds: in its cells, in lists or tuples there, or in the closures it holds."""
    seen = set() if seen is None else seen
    arrays = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        for v in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(v, np.ndarray):
                arrays.append(v)
            elif isinstance(v, types.FunctionType) and id(v) not in seen:
                seen.add(id(v))
                arrays.extend(closure_arrays(v, seen))
    return arrays


def tape_held_bytes(loss):
    """Bytes of the unique base arrays that the tape ending at loss holds (views count as their base)."""
    bases = {}
    for fn in tape_closures(loss):
        for a in closure_arrays(fn):
            while isinstance(a.base, np.ndarray):
                a = a.base
            bases[id(a)] = a
    return sum(a.nbytes for a in bases.values())


@pytest.mark.parametrize("build,ops", [(dvg_loss, 109), (idm_loss, 41)],
                         ids=["VideoDenoiser", "ActionDecoder"])
def test_tape_keeps_no_tensor(build, ops):
    _, loss = build(np.random.default_rng(3))
    closures = tape_closures(loss)
    assert len(closures) == ops
    for fn in closures:
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            items = value if isinstance(value, (list, tuple)) else (value,)
            assert not any(isinstance(v, nn.Tensor) for v in items), fn.__qualname__


@pytest.mark.parametrize("build,held", [(dvg_loss, 2159860), (idm_loss, 1374492)],
                         ids=["VideoDenoiser", "ActionDecoder"])
def test_tape_held_bytes_are_pinned(build, held):
    """What the miniature models' tapes hold, to the byte: a change that keeps more shows here."""
    _, loss = build(np.random.default_rng(3))
    assert tape_held_bytes(loss) == held


def test_attention_tape_keeps_no_score_tensor():
    """Each attention closure holds exactly its (N, T, C) input and the four weights.

    No q, k, v, p v or (N, T, T) score array is kept: backward recomputes
    them chunk by chunk. The spatial level attends over T = 256 tokens.
    """
    model, loss = dvg_loss(np.random.default_rng(3))
    weights = {id(p.data) for p in model.params().values() if p.ndim == 2}
    held = [closure_arrays(fn) for fn in tape_closures(loss) if fn.__qualname__.startswith("attention.")]
    assert len(held) == 4  # three temporal levels and one spatial
    lengths = []
    for arrays in held:
        unique = {id(a): a for a in arrays}
        x = [a for key, a in unique.items() if key not in weights]
        assert len(unique) == 5 and len(x) == 1 and x[0].ndim == 3
        assert sorted(a.shape for key, a in unique.items() if key in weights) == [(x[0].shape[-1],) * 2] * 4
        lengths.append(x[0].shape[1])
    assert 256 in lengths


def test_upblock_tape_keeps_the_low_resolution_input():
    """Each UpBlock closure holds its 16x16 or 32x32 input, no array at the upsampled resolution."""
    _, loss = dvg_loss(np.random.default_rng(3))
    held = [[c.cell_contents.shape for c in fn.__closure__
             if isinstance(c.cell_contents, np.ndarray) and c.cell_contents.ndim > 2]
            for fn in tape_closures(loss) if fn.__qualname__.startswith("conv1x1_upsample2x.")]
    assert sorted(held) == [[(4, 16, 16, 4)], [(4, 32, 32, 3)]]


_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _perfbench_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_reads_the_tape(monkeypatch):
    """perfbench's tracer wraps nn._make and names conv2d backward spans from the closure."""
    monkeypatch.setattr(nn, "_make", nn._make)  # restored after the test
    tracer = _perfbench_tracer().Tracer()
    tracer._wrap_tape(nn)
    rng = np.random.default_rng(4)
    conv = nn.Conv2d(2, 4, rng, stride=2)
    nn.mse(conv(nn.Tensor(rng.normal(size=(2, 6, 6, 2)))), 0.0).backward()
    assert tracer.stats["nn.conv2d.bwd.6x6x2-4s2"].calls == 1
    assert tracer.counts["nn.tape_ops"] > 0
    assert conv.w.grad is not None


@pytest.mark.parametrize("install", ["Tracer().install", "install_counters"])
def test_benchmark_tracer_installs_on_the_package(install):
    """perfbench's tracer wraps the package's entry points by name, on the modules its worker passes.

    A renamed entry point fails the install. It runs in a child process, so
    the wrappers never reach this one.
    """
    script = f"""
import importlib, importlib.util
spec = importlib.util.spec_from_file_location("perfbench_tracer", {_TRACER!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
names = ("env", "data", "prompts", "diffusion", "inverse_dynamics", "policies", "pipeline", "nn", "storage")
tracing.{install}({{name: importlib.import_module("minimanip." + name) for name in names}})
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nn.__file__)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
