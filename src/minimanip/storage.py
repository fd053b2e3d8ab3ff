"""Binary checkpoint container shared by every trained model.

Layout: magic MMCKP1, u32 version, u32 meta length + UTF-8 JSON metadata,
u32 tensor count, then per tensor: u32 name length, name, u32 ndim,
u32 dims, little-endian float32 data. Metadata carries the model kind,
constructor arguments, seed, and config hash for provenance.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

CKPT_MAGIC = b"MMCKP1\x00\x00"
VERSION = 1


def config_hash(obj):
    """Stable short hash of a JSON-serializable config."""
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def read_exact(f, n, path):
    """Read exactly n bytes from f; a short read raises a ValueError naming path."""
    buf = f.read(n)
    if len(buf) != n:
        raise ValueError(f"truncated file {path}: expected {n} bytes, got {len(buf)}")
    return buf


def _read_u32s(f, count, path):
    """Read count little-endian u32 values."""
    return [int(v) for v in np.frombuffer(read_exact(f, 4 * count, path), dtype="<u4")]


def _write_u32s(f, values):
    f.write(np.asarray(values, dtype="<u4").tobytes())


def read_header(f, magic, count, path, kind):
    """Check the 8-byte magic of a `kind` file, then read its count u32 fields."""
    if f.read(8) != magic:
        raise ValueError(f"bad {kind} magic in {path}")
    return _read_u32s(f, count, path)


def write_header(f, magic, fields):
    """Write the 8-byte magic, then the u32 header fields."""
    f.write(magic)
    _write_u32s(f, fields)


def save_checkpoint(path, state, meta):
    """Write named float tensors and a metadata dict."""
    meta_blob = json.dumps(meta, sort_keys=True).encode()
    with open(path, "wb") as f:
        write_header(f, CKPT_MAGIC, [VERSION, len(meta_blob)])
        f.write(meta_blob)
        _write_u32s(f, [len(state)])
        for name in sorted(state):
            arr = np.ascontiguousarray(state[name], dtype="<f4")
            nb = name.encode()
            _write_u32s(f, [len(nb)])
            f.write(nb)
            _write_u32s(f, [arr.ndim] + list(arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path):
    """Read (state dict, metadata dict)."""
    with open(path, "rb") as f:
        version, meta_len = read_header(f, CKPT_MAGIC, 2, path, "checkpoint")
        if version != VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        meta = json.loads(read_exact(f, meta_len, path).decode())
        state = {}
        (count,) = _read_u32s(f, 1, path)
        for _ in range(count):
            (name_len,) = _read_u32s(f, 1, path)
            name = read_exact(f, name_len, path).decode()
            (ndim,) = _read_u32s(f, 1, path)
            shape = tuple(_read_u32s(f, ndim, path))
            n = int(np.prod(shape)) if shape else 1
            state[name] = np.frombuffer(read_exact(f, 4 * n, path), dtype="<f4").reshape(shape).copy()
    return state, meta


def save_model(path, model, kind, init_kwargs, extra_meta=None):
    meta = {"kind": kind, "init": init_kwargs}
    if extra_meta:
        meta.update(extra_meta)
    save_checkpoint(path, model.state(), meta)


def load_model(path):
    """Rebuild a saved model; returns (model, metadata)."""
    from . import diffusion, inverse_dynamics, policies

    state, meta = load_checkpoint(path)
    kind = meta.get("kind")
    init = {k: (tuple(v) if isinstance(v, list) else v) for k, v in meta.get("init", {}).items()}
    rng = np.random.default_rng(0)
    if kind == "dvg":
        model = diffusion.VideoDenoiser(rng, **init)
    elif kind == "idm":
        model = inverse_dynamics.ActionDecoder(rng, **init)
    elif kind in ("lcbc", "rt1"):
        model = policies.make_policy(kind, rng, **init)
    elif kind == "classifier":
        from .pipeline import VariantClassifier
        model = VariantClassifier(rng, **init)
    else:
        raise ValueError(f"unknown checkpoint kind: {kind!r}")
    model.load_state(state)
    return model, meta
