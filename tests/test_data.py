import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from minimanip import data, env, storage
from minimanip import inverse_dynamics as idm


@pytest.fixture(scope="module")
def short_traj():
    return data.run_episode("window-close", seed=2, epsilon=0.0)


def test_collect_counts_and_success():
    trajs = data.collect("drawer-open", n_episodes=3, epsilon=0.1, seed=0)
    assert len(trajs) == 3
    assert all(t.success for t in trajs)
    for t in trajs:
        assert len(t.frames) == len(t.actions) + 1


def test_collect_deterministic(tmp_path):
    a = data.collect("drawer-open", n_episodes=1, epsilon=0.0, seed=5)[0]
    b = data.collect("drawer-open", n_episodes=1, epsilon=0.0, seed=5)[0]
    data.save_trajectory(a, tmp_path / "a")
    data.save_trajectory(b, tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_collect_epsilon_lengthens_episodes():
    clean = data.collect("faucet-open", n_episodes=8, epsilon=0.0, seed=0)
    noisy = data.collect("faucet-open", n_episodes=8, epsilon=0.1, seed=0)
    assert np.mean([len(t.actions) for t in noisy]) > np.mean([len(t.actions) for t in clean])


def test_file_round_trip(tmp_path, short_traj):
    data.save_trajectory(short_traj, tmp_path / "ep")
    back = data.load_trajectory(tmp_path / "ep")
    assert back.task_id == short_traj.task_id
    assert back.seed == short_traj.seed
    assert back.success == short_traj.success
    assert np.array_equal(back.frames, short_traj.frames)
    assert np.array_equal(back.actions, short_traj.actions)
    for k, v in short_traj.layout.positions.items():
        assert np.array_equal(back.layout.positions[k], v)
    assert back.layout.scalars == short_traj.layout.scalars


def test_episode_file_layout(tmp_path, short_traj):
    data.save_dataset([short_traj], tmp_path)
    (path,) = tmp_path.iterdir()
    assert path.name == f"window-close_{short_traj.seed:08d}.episode"
    assert path.read_bytes()[:8] == b"MMARR1\x00\x00"
    arrays, meta = storage.load_arrays(path, "episode")
    assert arrays["frames"].dtype == np.uint8 and arrays["frames"].shape[1:] == (64, 64, 3)
    assert arrays["actions"].dtype == np.float32 and arrays["actions"].shape[1:] == (3,)
    assert {k: meta[k] for k in ("task_id", "seed", "epsilon", "success")} == {
        "task_id": "window-close", "seed": 2, "epsilon": 0.0, "success": True}


def test_subsample_index_arithmetic():
    frames = np.arange(200)[:, None, None, None] * np.ones((1, 64, 64, 3), dtype=np.uint8)
    picked = data.subsample_frames(frames)
    assert picked.shape[0] == 36
    assert picked[0, 0, 0, 0] == 0 and picked[1, 0, 0, 0] == 3
    assert picked[35, 0, 0, 0] == 105


def test_subsample_padding():
    frames = np.arange(30)[:, None, None, None] * np.ones((1, 64, 64, 3), dtype=np.uint8)
    picked = data.subsample_frames(frames)
    vals = picked[:, 0, 0, 0]
    assert list(vals[:10]) == [0, 3, 6, 9, 12, 15, 18, 21, 24, 27]
    assert np.all(vals[10:] == 27)


def test_subsample_exact_length_needs_no_padding():
    n = data.SKIP * (data.VIDEO_FRAMES - 1) + 1  # 106: the last frame is the last one picked
    frames = np.arange(n)[:, None, None, None] * np.ones((1, 64, 64, 3), dtype=np.uint8)
    picked = data.subsample_frames(frames)
    assert np.array_equal(picked[:, 0, 0, 0], np.arange(0, n, data.SKIP))
    assert picked[-1, 0, 0, 0] == n - 1 == 105


def test_subsampled_pose_track_matches_frames(short_traj):
    positions, closed = data.gripper_pose_track(short_traj)
    assert len(positions) < data.SKIP * data.VIDEO_FRAMES  # exercises the padding
    pos, clo = data.subsampled_pose_track(short_traj)
    assert pos.shape == (data.VIDEO_FRAMES, 2) and clo.shape == (data.VIDEO_FRAMES,)
    assert clo.dtype == bool
    n = len(positions[::data.SKIP])
    assert np.array_equal(pos[:n], positions[::data.SKIP])
    assert np.array_equal(clo[:n], closed[::data.SKIP])
    assert np.all(pos[n:] == positions[::data.SKIP][-1]) and np.all(clo[n:] == clo[n - 1])


def test_subsample_empty():
    with pytest.raises(ValueError, match="empty trajectory"):
        data.subsample_frames(np.zeros((0, 64, 64, 3), dtype=np.uint8))


def test_edge_extract_constant_zero():
    frame = np.full((64, 64, 3), 77, dtype=np.uint8)
    assert data.edge_extract_video(frame[None]).max() == 0


def test_edge_extract_step_edge():
    frame = np.zeros((64, 64, 3), dtype=np.uint8)
    frame[:, 32:] = 255
    out = data.edge_extract_video(frame[None])[0, :, :, 0].astype(int)
    inside = out[:, 31:33]
    outside = np.concatenate([out[:, :30], out[:, 34:]], axis=1)
    assert inside.max() > 200
    assert outside.max() == 0


def test_edge_extract_closure():
    frame = np.random.default_rng(0).integers(0, 256, size=(64, 64, 3)).astype(np.uint8)
    out = data.edge_extract_video(data.edge_extract_video(frame[None]))
    assert out.dtype == np.uint8
    assert out.min() >= 0 and out.max() <= 255


def test_inject_noise_identity():
    frame = np.random.default_rng(1).integers(0, 256, size=(64, 64, 3)).astype(np.uint8)
    rng = np.random.default_rng(0)
    out = data.inject_noise(frame, 0.0, rng)
    assert out.dtype == np.float32
    assert np.array_equal(out, frame)
    # sigma 0 draws nothing, so the caller's stream is untouched
    assert rng.random() == np.random.default_rng(0).random()


def test_inject_noise_std():
    frame = np.full((640, 640, 3), 128, dtype=np.uint8)
    out = data.inject_noise(frame, 10.0, np.random.default_rng(0))
    assert out.dtype == np.float32
    delta = out.astype(np.float64) - 128.0
    assert 9.5 <= delta.std() <= 10.5
    assert not np.array_equal(out, np.rint(out))  # not rounded to whole pixels


def test_inject_noise_clamp():
    rng = np.random.default_rng(0)
    for value in (0, 255):
        out = data.inject_noise(np.full((64, 64, 3), value, dtype=np.uint8), 10.0, rng)
        assert out.min() >= 0.0 and out.max() <= 255.0
        assert np.any(out == value)


def test_inject_noise_invalid_sigma():
    with pytest.raises(ValueError, match="invalid sigma"):
        data.inject_noise(np.zeros((4, 4, 3), dtype=np.uint8), -1.0, np.random.default_rng(0))


def _toy_traj(n_frames):
    frames = np.zeros((n_frames, 64, 64, 3), dtype=np.uint8)
    actions = np.zeros((n_frames - 1, 3), dtype=np.float32)
    lay = env.sample_layout("reach", 0)
    return data.Trajectory("reach", 0, 0.0, frames, actions, True, lay)


@pytest.mark.parametrize("w,expect", [(12, 25), (36, 1)])
def test_pack_video_windows_counts(w, expect):
    # videos are padded to 36 frames, so a 13-frame episode has 36-w+1 windows
    vids, targets = idm.pack_video_windows([_toy_traj(13), _toy_traj(40)])
    assert vids.shape == (2, 36, 64, 64, 3) and targets.shape == (2, 35, 3)
    windows = idm._windows(vids.shape[1], w)
    assert windows.shape == (expect, w)
    assert windows.tolist() == [list(range(k, k + w)) for k in range(expect)]


def test_pack_video_windows_too_short():
    packed = idm.pack_video_windows([_toy_traj(13)])
    with pytest.raises(ValueError, match="video too short"):
        idm.train_idm(packed, idm.IdmConfig(steps=1, window=37))
    model = idm.ActionDecoder(np.random.default_rng(0), d=8, window=37)
    with pytest.raises(ValueError, match="video too short"):
        idm.binwise_accuracy(model, packed)


@pytest.mark.parametrize("w", [1, 0])
def test_windows_need_one_transition(w):
    with pytest.raises(ValueError, match=f"window {w}: must be >= 2 frames"):
        idm._windows(36, w)
    with pytest.raises(ValueError, match=f"window {w}: must be >= 2 frames"):
        idm.train_idm(idm.pack_video_windows([_toy_traj(13)]), idm.IdmConfig(steps=1, window=w))


def test_window_coverage_reconstruction(short_traj):
    w = 12
    vids, targets = idm.pack_video_windows([short_traj])
    sub = data.subsample_trajectory(short_traj)
    windows = idm._windows(vids.shape[1], w)
    rebuilt = targets[0, windows[::w - 1, :-1]].reshape(-1, 3)
    assert len(rebuilt) == 33
    assert np.array_equal(rebuilt, data.discretize(sub.actions)[:len(rebuilt)])
    frames = vids[0, windows[::w]].reshape(-1, 64, 64, 3)
    assert np.array_equal(frames, data.edge_extract_video(sub.frames)[:len(frames)])


def _header_fields(raw):
    """(offset, width) of every fixed-width header field of a container file."""
    (meta_len,) = np.frombuffer(raw[12:16], dtype="<u4")
    fields = [(0, 8), (8, 4), (12, 4), (16 + meta_len, 4)]
    pos = 20 + meta_len
    for _ in range(int(np.frombuffer(raw[pos - 4:pos], dtype="<u4")[0])):
        (name_len,) = np.frombuffer(raw[pos:pos + 4], dtype="<u4")
        fields.append((pos, 4))
        pos += 4 + int(name_len)
        code, ndim = np.frombuffer(raw[pos:pos + 8], dtype="<u4")
        dims = np.frombuffer(raw[pos + 8:pos + 8 + 4 * int(ndim)], dtype="<u4")
        fields.extend((pos + 4 * i, 4) for i in range(2 + len(dims)))
        pos += 8 + 4 * len(dims) + (1 if code == 1 else 4) * int(np.prod(dims))
    assert pos == len(raw)
    return fields


_PARAM_NAMES = ("blocks.0.attn.w", "blocks.0.ln.g", "head.b", "head.w", "stem.conv.w")
_small_floats = st.floats(-2, 2, width=32)


@st.composite
def _episode_file(draw, path):
    n = draw(st.integers(1, 3))
    hw = draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=3))
    traj = data.Trajectory(
        task_id=draw(st.sampled_from(env.TASK_IDS)), seed=draw(st.integers(0, 2**31)),
        epsilon=draw(st.floats(0, 1)), success=draw(st.booleans()),
        frames=draw(hnp.arrays(np.uint8, (n + 1, *hw, 3))),
        actions=draw(hnp.arrays(np.float32, (n, 3), elements=st.floats(-1, 1, width=32))),
        layout=env.WorkspaceLayout(positions={"handle": np.array(draw(st.tuples(_small_floats, _small_floats)))},
                                   scalars={"angle": draw(_small_floats)}, seed=draw(st.integers(0, 2**31))))
    data.save_trajectory(traj, path)
    return data.load_trajectory


@st.composite
def _checkpoint_file(draw, path):
    names = draw(st.lists(st.sampled_from(_PARAM_NAMES), min_size=1, max_size=4, unique=True))
    state = {k: draw(hnp.arrays(np.float32, hnp.array_shapes(max_dims=4, max_side=3), elements=_small_floats))
             for k in names}
    storage.save_arrays(path, state, {"kind": "idm", "init": {"d": draw(st.integers(1, 64))}})
    return lambda p: storage.load_arrays(p, storage.MODEL_KINDS)


@settings(max_examples=10, deadline=None)
@given(st.data())
@pytest.mark.parametrize("fmt", ["episode", "checkpoint"])
def test_corrupt_file_names_path(tmp_path_factory, fmt, draw):
    """Every truncation and every one-bit flip in a fixed-width header field raises
    a ValueError naming the file (flips inside the payload are not detected)."""
    tmp = tmp_path_factory.mktemp(fmt)
    path = tmp / "full.bin"
    load = draw.draw({"episode": _episode_file, "checkpoint": _checkpoint_file}[fmt](path))
    load(path)  # the whole file reads back
    raw = path.read_bytes()
    corrupt = [raw[:size] for size in range(len(raw))]
    for off, width in _header_fields(raw):
        for bit in range(8 * width):
            flipped = bytearray(raw)
            flipped[off + bit // 8] ^= 1 << bit % 8
            corrupt.append(bytes(flipped))
    bad = tmp / "bad.bin"
    for blob in corrupt:
        # a new file each time: ext4 flushes a file that was truncated and rewritten when it is closed
        bad.unlink(missing_ok=True)
        bad.write_bytes(blob)
        with pytest.raises(ValueError, match="bad.bin"):
            load(bad)


_SINGLE_ARRAY_FILES = {  # a sampled video and its labelled actions, as `minimanip sample` / `label` write them
    "frames": ({"frames": np.arange(96, dtype=np.uint8).reshape(2, 4, 4, 3)}, "video"),
    "actions": ({"actions": np.linspace(-1, 1, 12, dtype=np.float32).reshape(4, 3)}, "actions"),
}


@pytest.mark.parametrize("fmt", sorted(_SINGLE_ARRAY_FILES))
def test_truncated_file_names_path(tmp_path, fmt):
    arrays, kind = _SINGLE_ARRAY_FILES[fmt]
    path = tmp_path / "full.bin"
    storage.save_arrays(path, arrays, {"kind": kind})
    back, meta = storage.load_arrays(path, kind)  # the whole file reads back
    assert meta["kind"] == kind and np.array_equal(back[fmt], arrays[fmt])
    raw = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in range(len(raw)):
        cut.unlink(missing_ok=True)  # a new file, as in test_corrupt_file_names_path
        cut.write_bytes(raw[:size])
        with pytest.raises(ValueError, match="cut.bin"):
            storage.load_arrays(cut, kind)


def test_corrupt_metadata_names_path(tmp_path):
    path = tmp_path / "p.ckpt"
    storage.save_arrays(path, {"w": np.ones(3)}, {"kind": "idm", "init": {}})
    raw = bytearray(path.read_bytes())
    raw[17] ^= 0x80  # inside the JSON text: no longer UTF-8
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="corrupt metadata in .*p.ckpt"):
        storage.load_arrays(path, "idm")


def test_trailing_bytes_name_path(tmp_path):
    path = tmp_path / "v.bin"
    storage.save_arrays(path, {"frames": np.zeros((12, 4, 4, 3), np.uint8)}, {"kind": "video"})
    raw = bytearray(path.read_bytes())
    first_dim, _ = _header_fields(raw)[-4]
    raw[first_dim] ^= 0x08  # frame count 12 -> 4
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="384 bytes after the last array in .*v.bin"):
        storage.load_arrays(path, "video")


def test_failed_save_keeps_the_old_file(tmp_path):
    path = tmp_path / "ep.episode"
    storage.save_arrays(path, {"frames": np.ones((2, 2), np.uint8)}, {"kind": "video"})
    before = path.read_bytes()
    with pytest.raises(ValueError):  # "b" is written after "a" and does not convert to float32
        storage.save_arrays(path, {"a": np.zeros(3), "b": np.array(["x"])}, {"kind": "video"})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ep.episode"]


def test_failed_text_save_keeps_the_old_file(tmp_path):
    path = tmp_path / "rates.csv"
    storage.save_text(path, "fold,arm\n")
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate has no UTF-8 encoding
        storage.save_text(path, "fold,\ud800\n")
    assert path.read_text(encoding="utf-8") == "fold,arm\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rates.csv"]


def test_discretize_endpoints():
    assert data.discretize(np.array([-1.0, -1.0, -1.0])).tolist() == [0, 0, 0]
    assert data.discretize(np.array([1.0, 1.0, 1.0])).tolist() == [255, 255, 255]


def test_round_trip_error_bound():
    xs = np.linspace(-1, 1, 1001)
    err = np.abs(data.undiscretize(data.discretize(np.stack([xs] * 3, axis=-1))) - xs[:, None])
    assert err.max() <= 1.0 / 256 + 1e-7


def test_bins_round_trip_exhaustive():
    bins = np.arange(256)
    back = data.discretize(np.stack([data.undiscretize(np.stack([bins] * 3, -1))[:, 0]] * 3, -1))
    assert np.array_equal(back[:, 0], bins)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=3, max_size=3),
       st.lists(st.floats(-1, 1), min_size=3, max_size=3))
def test_discretize_monotone(a, b):
    da = data.discretize(np.asarray(a))
    db = data.discretize(np.asarray(b))
    for i in range(3):
        if a[i] <= b[i]:
            assert da[i] <= db[i]


def test_discretize_rejects_out_of_range():
    with pytest.raises(ValueError, match="action out of range"):
        data.discretize(np.array([1.5, 0.0, 0.0]))


def test_fold_split_contents():
    s1 = data.fold_split(1)
    assert "door-close" in s1.few_shot
    assert "door-open" in s1.zero_shot
    s2 = data.fold_split(2)
    assert set(s1.zero_shot) == set(s2.few_shot)
    assert set(s1.few_shot) | set(s1.zero_shot) == set(env.TASK_IDS)
    assert not set(s1.few_shot) & set(s1.zero_shot)
    assert len(s1.few_shot) == 8 and len(s1.zero_shot) == 8
    for split in (s1, s2):
        for group in (split.few_shot, split.zero_shot):
            assert len({env.get_task(t).family for t in group}) == 8


def test_fold_split_invalid():
    with pytest.raises(ValueError, match="invalid fold"):
        data.fold_split(3)


def test_bridged_actions_match_displacement(short_traj):
    sub = data.subsample_trajectory(short_traj)
    assert len(sub.frames) == 36 and len(sub.actions) == 35
    positions, _ = data.gripper_pose_track(short_traj)
    k = (len(short_traj.actions) // 3)
    for t in range(min(10, k)):
        net = positions[3 * (t + 1)] - positions[3 * t]
        assert np.allclose(env.STEP * sub.actions[t, :2], net, atol=1e-9)


def test_bridged_actions_replayable(short_traj):
    from minimanip.pipeline import replay_actions
    assert replay_actions(short_traj.task_id, short_traj.layout,
                          data.subsample_trajectory(short_traj).actions)
