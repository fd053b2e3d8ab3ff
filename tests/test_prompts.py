import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimanip import env, pipeline, prompts

TABLE_ROWS = [
    ("Vertical button, reddish-brown wall",
     "Vertical button, reddish-brown wall, (Wall)"),
    ("Brown ferrule and green handle, red cylinder, rings over columns",
     "Brown ferrule and green handle, red cylinder, rings over columns, (Over columns)"),
    ("Black metal safety door, door close, door lock",
     "Black metal safety door, door close, door lock, (Close), (Lock)"),
]


@pytest.mark.parametrize("original,expected", TABLE_ROWS)
def test_reference_expansions_exact(original, expected):
    assert prompts.expand_prompt(original) == expected


def test_extract_keywords_kinds():
    kws = prompts.extract_keywords("Vertical button, reddish-brown wall")
    assert ("object", "button") in kws
    assert ("environment", "wall") in kws


def test_extract_keywords_multiword_wins():
    kws = prompts.extract_keywords("rings over columns")
    assert ("action", "over columns") in kws
    assert ("environment", "columns") not in kws


def test_extract_keywords_actions():
    kws = prompts.extract_keywords("Black metal safety door, door close, door lock")
    assert ("action", "close") in kws and ("action", "lock") in kws


def test_extract_no_hits():
    assert prompts.extract_keywords("lorem ipsum") == []


def test_expand_idempotent_on_registry():
    for t in env.REGISTRY.values():
        p = prompts.expand_prompt(t.description)
        assert prompts.expand_prompt(p) == p
        assert p.startswith(t.description)


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Zs"), whitelist_characters=",."), max_size=80))
def test_expand_idempotent_fuzz(text):
    p = prompts.expand_prompt(text)
    assert p.startswith(text)
    assert prompts.expand_prompt(p) == p


def test_embedding_deterministic_unit_norm():
    for t in env.REGISTRY.values():
        p = prompts.expand_prompt(t.description)
        e1 = prompts.embed_prompt(p)
        e2 = prompts.embed_prompt(p)
        assert np.array_equal(e1, e2)
        assert abs(np.linalg.norm(e1) - 1.0) < 1e-6


def test_task_embedding_is_embedded_task_prompt():
    for t in env.REGISTRY.values():
        e = prompts.task_embedding(t.task_id)
        assert np.array_equal(e, prompts.embed_prompt(prompts.expand_prompt(t.description)))
        assert prompts.task_embedding(t) is e
        assert not e.flags.writeable


def test_task_embeddings_are_pinned():
    """The 16 float64 task embeddings, in registry order, keep every bit."""
    h = hashlib.sha256()
    for tid in env.TASK_IDS:
        e = prompts.task_embedding(tid)
        assert e.dtype == np.float64 and e.shape == (prompts.EMBED_DIM,)
        h.update(e.tobytes())
    assert h.hexdigest() == "8eba2224d8508e563f003bd71a0d6a1c67ee0bea71a7bae4eadbf5cfa1424fe9"


def test_embedding_empty_reserved():
    e = prompts.embed_prompt("lorem ipsum")
    e2 = prompts.embed_prompt("qwertyuiop")
    assert np.array_equal(e, e2)
    assert abs(np.linalg.norm(e) - 1.0) < 1e-6


def test_disjoint_keywords_low_similarity():
    e1 = prompts.embed_prompt("button plunger workshop")
    e2 = prompts.embed_prompt("faucet spout sink")
    assert abs(float(e1 @ e2)) < 0.5


def test_similarity_matrix_properties():
    ps = [prompts.expand_prompt(t.description) for t in env.REGISTRY.values()]
    m = prompts.similarity_matrix(ps)
    assert np.allclose(np.diag(m), 1.0, atol=1e-6)
    assert np.allclose(m, m.T)
    assert m.min() >= -1.0 - 1e-9 and m.max() <= 1.0 + 1e-9


def test_similarity_needs_two():
    with pytest.raises(ValueError, match="need at least two prompts"):
        prompts.similarity_matrix(["only one"])


def test_expanded_intra_family_similarity_rises():
    orig, expanded = [], []
    by_family = {}
    for t in env.REGISTRY.values():
        by_family.setdefault(t.family, []).append(t.description)
    for d1, d2 in by_family.values():
        orig.append(float(prompts.embed_prompt(d1) @ prompts.embed_prompt(d2)))
        expanded.append(float(
            prompts.embed_prompt(prompts.expand_prompt(d1))
            @ prompts.embed_prompt(prompts.expand_prompt(d2))))
    assert np.mean(expanded) > np.mean(orig)


def test_plan_pose_shape_and_goal():
    for tid in env.TASK_IDS:
        lay = env.sample_layout(tid, 3)
        poses = prompts.plan_pose(tid, lay)
        assert len(poses) == 36
        assert poses.positions.shape == (36, 2)
        assert np.all(poses.positions >= 0) and np.all(poses.positions <= 1)


def test_plan_pose_reach_endpoint():
    lay = env.sample_layout("reach", 5)
    poses = prompts.plan_pose("reach", lay)
    assert np.linalg.norm(poses.positions[-1] - lay.positions["target"]) <= 0.03


def test_plan_pose_deterministic():
    lay = env.sample_layout("door-open", 5)
    p1 = prompts.plan_pose("door-open", lay)
    p2 = prompts.plan_pose("door-open", lay)
    assert np.array_equal(p1.positions, p2.positions)
    assert np.array_equal(p1.closed, p2.closed)


@pytest.mark.parametrize("task_id", env.TASK_IDS)
def test_plan_pose_closed_loop_sound(task_id):
    # the plan, as the actions a perfect labeler would read off its video,
    # replayed by the same function the demo filter runs
    for seed in range(20):
        lay = env.sample_layout(task_id, seed)
        poses = prompts.plan_pose(task_id, lay)
        actions = np.zeros((len(poses.positions) - 1, 3))
        actions[:, :2] = np.diff(poses.positions, axis=0) / env.STEP
        actions[:, 2] = np.where(poses.closed[1:], 1.0, -1.0)
        assert pipeline.replay_actions(task_id, lay, actions), f"pose replay failed for {task_id} seed {seed}"


def test_render_pose_video_mapping():
    poses = prompts.PoseSequence(
        positions=np.tile(np.array([[0.5, 0.5]]), (36, 1)),
        closed=np.zeros(36, dtype=bool),
    )
    video = prompts.render_pose_video(poses)
    assert video.shape == (36, 64, 64, 1)
    assert video[0, 32, 32, 0] == 128
    poses.closed[:] = True
    video2 = prompts.render_pose_video(poses)
    assert video2[0, 32, 32, 0] == 255
    # a planned track paints each frame exactly as the simulator's disc does
    push = prompts.plan_pose("push", env.sample_layout("push", 2))
    for t, frame in enumerate(prompts.render_pose_video(push)):
        rgb = np.zeros((env.RES, env.RES, 3), dtype=np.uint8)
        val = 255 if push.closed[t] else 128
        env._disc(rgb, push.positions[t], 2, (val, val, val))
        assert frame[:, :, 0].tobytes() == rgb[:, :, 0].tobytes()


def test_render_pose_video_background_zero():
    lay = env.sample_layout("push", 1)
    video = prompts.render_pose_video(prompts.plan_pose("push", lay))
    for t in range(0, 36, 7):
        frame = video[t, :, :, 0]
        ys, xs = np.nonzero(frame)
        assert len(ys) > 0
        assert ys.max() - ys.min() <= 5 and xs.max() - xs.min() <= 5  # one disc
