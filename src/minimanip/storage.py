"""The one file container (named arrays plus JSON metadata) and the one text writer.

Every artifact the pipeline writes (episodes, sampled videos, labelled
actions, model checkpoints) is one such file, and every text file goes
through `save_text`; both write atomically. Layout: magic MMARR1, u32
version, u32 meta length + UTF-8 JSON metadata, u32 array count, then per
array: u32 name length, UTF-8 name, u32 dtype code, u32 ndim, u32 dims, raw
data. uint8 arrays are stored as is, everything else as float32; all
integers and floats are little-endian. The metadata's `kind` says what the
file holds, and every reader states the kinds it accepts.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct

import numpy as np

MAGIC = b"MMARR1\x00\x00"
VERSION = 1
# codes differ in two bits, so no single flipped bit turns one into another
_DTYPES = {1: np.dtype(np.uint8), 2: np.dtype("<f4")}
_CODES = {dt: code for code, dt in _DTYPES.items()}
MODEL_KINDS = ("dvg", "idm", "lcbc", "rt1", "classifier")


def config_hash(obj):
    """Stable short hash of a JSON-serializable config."""
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@contextlib.contextmanager
def _replacing(path):
    """A binary file next to path, renamed onto it once the block finishes.

    A block that raises removes that file and leaves any earlier file at path as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_text(path, text):
    """Write text to path as UTF-8, atomically."""
    with _replacing(path) as f:
        f.write(text.encode("utf-8"))


def save_arrays(path, arrays, meta):
    """Write named arrays and a metadata dict (with a `kind`) to path, atomically."""
    blob = json.dumps(meta, sort_keys=True).encode()
    with _replacing(path) as f:
        f.write(MAGIC + struct.pack("<II", VERSION, len(blob)) + blob + struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            a = np.asarray(arrays[name])
            a = np.ascontiguousarray(a, dtype=np.uint8 if a.dtype == np.uint8 else "<f4")
            if a.size == 0:
                raise ValueError(f"cannot store the empty array {name!r} in {path}")
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)) + nb
                    + struct.pack(f"<{2 + a.ndim}I", _CODES[a.dtype], a.ndim, *a.shape))
            f.write(a.tobytes())


def load_arrays(path, kinds):
    """Read (arrays, meta) from a file whose metadata kind is one of `kinds`.

    Anything that does not parse as a whole container (bad magic or version,
    a short read, undecodable metadata or names, an unknown dtype, bytes
    after the last array) or holds another kind raises a ValueError naming
    path. `kinds` is one kind or a tuple of them.
    """
    kinds = (kinds,) if isinstance(kinds, str) else kinds
    with open(path, "rb") as f:
        buf = memoryview(f.read())
    pos = 0

    def take(n):
        nonlocal pos
        if n > len(buf) - pos:
            raise ValueError(f"truncated file {path}: expected {n} bytes at offset {pos}, "
                             f"got {len(buf) - pos}")
        pos += n
        return buf[pos - n:pos]

    def u32s(n):
        return struct.unpack(f"<{n}I", take(4 * n))

    def text(n, what):
        try:
            s = str(take(n), "utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(f"corrupt {what} in {path}: {e}") from None
        if not s.isprintable():  # a misread length swallows binary header bytes
            raise ValueError(f"corrupt {what} in {path}: {s!r}")
        return s

    if take(len(MAGIC)) != MAGIC:
        raise ValueError(f"bad magic in {path}")
    version, meta_len = u32s(2)
    if version != VERSION:
        raise ValueError(f"unsupported version {version} in {path}")
    try:
        meta = json.loads(text(meta_len, "metadata"))
    except json.JSONDecodeError as e:
        raise ValueError(f"corrupt metadata in {path}: {e}") from None
    kind = meta.get("kind")
    if kind not in kinds:
        raise ValueError(f"{path} holds kind {kind!r}, expected {' or '.join(map(repr, kinds))}")
    arrays = {}
    (count,) = u32s(1)
    for _ in range(count):
        (name_len,) = u32s(1)
        name = text(name_len, "array name")
        code, ndim = u32s(2)
        if code not in _DTYPES:
            raise ValueError(f"unknown dtype code {code} for array {name!r} in {path}")
        shape = u32s(ndim)
        if 0 in shape:  # an empty array's dims carry no size, so a flipped dim or ndim would read back
            raise ValueError(f"corrupt shape {shape} for array {name!r} in {path}")
        dt = _DTYPES[code]
        arrays[name] = np.frombuffer(take(dt.itemsize * math.prod(shape)), dtype=dt).reshape(shape).copy()
    if pos != len(buf):
        raise ValueError(f"{len(buf) - pos} bytes after the last array in {path}")
    return arrays, meta


def save_model(path, model, kind, init_kwargs, extra_meta=None):
    meta = {"kind": kind, "init": init_kwargs}
    if extra_meta:
        meta.update(extra_meta)
    save_arrays(path, model.state(), meta)


def load_model(path):
    """Rebuild a saved model; returns (model, metadata)."""
    from . import diffusion, inverse_dynamics, pipeline, policies

    state, meta = load_arrays(path, MODEL_KINDS)
    kind = meta["kind"]
    init = {k: (tuple(v) if isinstance(v, list) else v) for k, v in meta.get("init", {}).items()}
    rng = np.random.default_rng(0)
    if kind in ("lcbc", "rt1"):
        model = policies.make_policy(kind, rng, **init)
    else:
        build = {"dvg": diffusion.VideoDenoiser, "idm": inverse_dynamics.ActionDecoder,
                 "classifier": pipeline.VariantClassifier}[kind]
        model = build(rng, **init)
    model.load_state(state)
    return model, meta
