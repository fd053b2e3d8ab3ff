"""Deterministic language-side stand-ins: keyword extraction, prompt expansion,
hashed prompt embeddings, and scripted gripper pose planning/rendering.

The lexicon ships as a data file (`kind<TAB>token` lines); extraction is
longest-match-first over word boundaries, so multi-word tokens like
"slide back" win over their prefixes.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from . import env
from .data import SKIP, VIDEO_FRAMES

EMBED_DIM = 32


def load_lexicon():
    """Ordered (kind, token) pairs from the packaged lexicon file."""
    entries = []
    with open(os.path.join(os.path.dirname(__file__), "lexicon.txt"), encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            kind, token = line.split("\t")
            entries.append((kind, token.lower()))
    return entries


_LEXICON = load_lexicon()


@dataclass
class PoseSequence:
    positions: np.ndarray   # (36, 2) float
    closed: np.ndarray      # (36,) bool

    def __len__(self):
        return len(self.positions)


# ---------------------------------------------------------------------------
# Keywords and expansion
# ---------------------------------------------------------------------------

def extract_keywords(text):
    """Lexicon matches in order of appearance; overlaps resolved longest-first."""
    low = text.lower()
    candidates = []
    for kind, token in _LEXICON:
        for m in re.finditer(r"(?<!\w)" + re.escape(token) + r"(?!\w)", low):
            candidates.append((m.start(), -len(token), token, kind))
    candidates.sort()
    taken, out = [], []
    for start, neglen, token, kind in candidates:
        end = start - neglen
        if any(s < end and start < e for s, e in taken):
            continue
        taken.append((start, end))
        out.append((kind, token))
    return out


def _cap(token):
    return token[:1].upper() + token[1:]


def expand_prompt(text):
    """Append ", (Tok)" for each action/environment keyword, deduplicated.

    Already-parenthesized tokens are not appended again, which makes
    expansion idempotent.
    """
    seen, suffix = set(), []
    for kind, token in extract_keywords(text):
        if kind == "object" or token in seen:
            continue
        seen.add(token)
        if f"({_cap(token)})" in text:
            continue
        suffix.append(f", ({_cap(token)})")
    return text + "".join(suffix)


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

def _token_vector(token):
    rng = np.random.default_rng([env._hash64("lexicon-embed"), env._hash64(token)])
    return rng.normal(0.0, 1.0, size=EMBED_DIM) / np.sqrt(EMBED_DIM)


_RESERVED = _token_vector("__no_keywords__")
_RESERVED /= np.linalg.norm(_RESERVED)


def embed_prompt(text):
    """Unit-norm mean of hashed token vectors over keyword occurrences."""
    tokens = [tok for _, tok in extract_keywords(text)]
    if not tokens:
        return _RESERVED.copy()
    v = np.mean([_token_vector(t) for t in tokens], axis=0)
    n = np.linalg.norm(v)
    if n < 1e-12:
        return _RESERVED.copy()
    return v / n


def similarity_matrix(prompts):
    """Pairwise cosine similarities of prompt embeddings."""
    if len(prompts) < 2:
        raise ValueError("need at least two prompts")
    embs = np.stack([embed_prompt(p) for p in prompts])
    return embs @ embs.T


_TASK_EMB = {}


def task_embedding(task):
    """`embed_prompt(expand_prompt(description))`, computed once per task; read-only."""
    task = env.get_task(task)
    if task.task_id not in _TASK_EMB:
        emb = embed_prompt(expand_prompt(task.description))
        emb.flags.writeable = False
        _TASK_EMB[task.task_id] = emb
    return _TASK_EMB[task.task_id]


# ---------------------------------------------------------------------------
# Pose planning
# ---------------------------------------------------------------------------

POSE_STEP = SKIP * env.EXPERT_CAP * env.STEP  # workspace units per pose step: one frame of expert motion


def plan_pose(task, layout):
    """Scripted gripper track for a layout, paced at the video frame rate.

    Walks the family waypoint plan axis-by-axis at POSE_STEP per pose, then
    holds the final pose; the result always has exactly VIDEO_FRAMES poses
    and its endpoint satisfies the task's goal geometry.
    """
    task = env.get_task(task)
    legs = env.waypoint_plan(task, layout)
    pos = layout.positions["grip_start"].astype(float).copy()
    positions, closed = [pos.copy()], [False]
    for target, grip in legs:
        while np.abs(target - pos).max() > 1e-9:
            delta = target - pos
            axis = 0 if abs(delta[0]) >= abs(delta[1]) else 1
            move = np.sign(delta[axis]) * min(POSE_STEP, abs(delta[axis]))
            pos[axis] += move
            positions.append(pos.copy())
            closed.append(grip)
    if len(positions) > VIDEO_FRAMES:
        raise ValueError(f"plan needs {len(positions)} poses, budget is {VIDEO_FRAMES}")
    while len(positions) < VIDEO_FRAMES:
        positions.append(pos.copy())
        closed.append(closed[-1])
    return PoseSequence(positions=np.asarray(positions, dtype=np.float64),
                        closed=np.asarray(closed, dtype=bool))


def render_pose_video(poses):
    """Single-channel pose conditioning video: one disc per frame.

    Disc intensity 255 when the gripper is closed, 128 when open; the
    workspace-to-pixel mapping matches the simulator renderer.
    """
    n = len(poses)
    video = np.zeros((n, env.RES, env.RES, 1), dtype=np.uint8)
    for t in range(n):
        env._disc(video[t], poses.positions[t], 2, (255 if poses.closed[t] else 128,))
    return video
