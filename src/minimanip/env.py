"""Deterministic 2D manipulation simulator: 8 task families x 2 variants.

The workspace is the unit square; a point gripper moves up to STEP units per
action step and interacts quasi-statically with one articulated object per
scene (press, dwell, drag, hinge, slide). Frames are 64x64x3 uint8 renders
that are a pure function of state. Scripted experts and the waypoint planner
share the same family geometry, so planned pose tracks are executable.

Mechanisms are tables, not per-family code: `_GOAL` names each variant's goal
scalar, threshold and direction; `_SPAN` and `_MARGIN` give each family's
scalar range and the margin its plans aim past the threshold; door and faucet
are `_HINGE`s (pivot plus arm sign), drawer, plate and window are `_SLIDE`s
(base plus unit axis).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import storage

RES = 64              # frame edge, pixels
STEP = 0.05           # workspace units of displacement per unit action
MAX_STEPS = 500
SIM_STEPS_PER_FRAME = 3  # simulator steps per frame of a (subsampled) demonstration video
ENGAGE_R = 0.045      # gripper-to-handle distance that counts as grasped
EXPERT_CAP = 1.0 / SIM_STEPS_PER_FRAME  # expert per-step action magnitude; keeps one frame's sums in [-1, 1]
NEAR_TOL = 0.03       # grab distance: ~2 px, visually resolvable, still well inside ENGAGE_R
WALL_HALF = 0.018
ARC_STEP = 0.15       # radians between arc waypoints for hinge/knob drags
GRAB_ALIGN = SIM_STEPS_PER_FRAME  # expert grasps start on frame boundaries

# Per-family mechanism constants and success thresholds. Success geometry is an
# artifact choice (tuned so experts always succeed and random policies almost
# never do); everything lives here rather than in code paths.
# Mechanism rate limits sit above the expert's actual per-step rates (the
# expert moves at EXPERT_CAP, i.e. ~0.0167 units/step) but well below what a
# full-magnitude random action could otherwise do in one step.
PRISMATIC_RATE = 0.02   # max extension change per step
PRESS_RATE = 0.018      # max plunger advance per step
HINGE_RATE = 0.10       # max hinge/knob angle change per step (rad)

CONFIG = {
    "button": {"plunger_len": 0.07, "depth_max": 0.05, "depth_goal": 0.04, "lateral_tol": 0.04,
               "spring": 0.012},
    "reach": {"radius": 0.03, "charge_rate": 0.2, "charge_goal": 0.999},
    "push": {"zone_tol": 0.04, "engage_r": ENGAGE_R},
    "door": {"arm_len": 0.22, "angle_max": 1.35, "close_goal": 0.12, "open_goal": 1.20},
    "drawer": {"ext_max": 0.18, "open_goal": 0.144, "close_goal": 0.024},
    "faucet": {"arm_len": 0.11, "angle_lim": 0.95, "open_goal": 0.75, "close_goal": -0.75},
    "plate": {"slide_max": 0.30, "fwd_goal": 0.24, "back_goal": 0.06},
    "window": {"ext_max": 0.15, "open_goal": 0.12, "close_goal": 0.022},
}

# variant -> (layout scalar, CONFIG threshold key, direction of the goal: the
# scalar must reach the threshold from below (+1) or from above (-1))
_GOAL = {
    "button-press": ("depth", "depth_goal", 1.0),
    "button-press-wall": ("depth", "depth_goal", 1.0),
    "reach": ("charge", "charge_goal", 1.0),
    "reach-wall": ("charge", "charge_goal", 1.0),
    "door-close": ("angle", "close_goal", -1.0),
    "door-open": ("angle", "open_goal", 1.0),
    "drawer-open": ("ext", "open_goal", 1.0),
    "drawer-close": ("ext", "close_goal", -1.0),
    "faucet-open": ("angle", "open_goal", 1.0),
    "faucet-close": ("angle", "close_goal", -1.0),
    "plate-slide": ("slide", "fwd_goal", 1.0),
    "plate-slide-back": ("slide", "back_goal", -1.0),
    "window-open": ("ext", "open_goal", 1.0),
    "window-close": ("ext", "close_goal", -1.0),
}

# family -> (lo, hi) range of its goal scalar
_SPAN = {
    "button": (0.0, CONFIG["button"]["depth_max"]),
    "door": (0.0, CONFIG["door"]["angle_max"]),
    "drawer": (0.0, CONFIG["drawer"]["ext_max"]),
    "faucet": (-CONFIG["faucet"]["angle_lim"], CONFIG["faucet"]["angle_lim"]),
    "plate": (0.0, CONFIG["plate"]["slide_max"]),
    "window": (0.0, CONFIG["window"]["ext_max"]),
}

# family -> how far past its threshold plans and the expert drive the scalar
_MARGIN = {"button": 0.006, "door": 0.06, "drawer": 0.008, "faucet": 0.06, "plate": 0.01, "window": 0.008}

# hinge family -> (pivot position, arm sign): the arm at angle t points along
# (sin t, sign * cos t)
_HINGE = {"door": ("hinge", -1.0), "faucet": ("center", 1.0)}

# slide family -> (base position, unit axis the goal scalar extends along)
_SLIDE = {
    "drawer": ("face", np.array([0.0, -1.0])),  # pulls out downward
    "plate": ("slot", np.array([1.0, 0.0])),
    "window": ("frame", np.array([0.0, 1.0])),
}


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    family: str
    fold: int
    description: str


@dataclass
class WorkspaceLayout:
    positions: dict          # name -> np.ndarray (2,), workspace units
    scalars: dict            # name -> float (hinge angle, extension, depth, ...)
    seed: int

    def copy(self):
        return WorkspaceLayout(
            positions={k: v.copy() for k, v in self.positions.items()},
            scalars=dict(self.scalars),
            seed=self.seed,
        )


@dataclass
class EnvState:
    task_id: str
    gripper: np.ndarray      # (2,) in [0,1]^2
    closed: bool
    layout: WorkspaceLayout
    steps: int = 0

    def copy(self):
        return EnvState(self.task_id, self.gripper.copy(), self.closed, self.layout.copy(), self.steps)


def _hash64(text):
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


# ---------------------------------------------------------------------------
# Task registry
# ---------------------------------------------------------------------------

_DESCRIPTIONS = {
    "button-press": "Round crimson button on a plunger mount, workshop wall, button press",
    "button-press-wall": "Round azure button behind a steel latch, workshop wall, button press",
    "reach": "Amber beacon light, target pad, arena floor, reach the target",
    "reach-wall": "Violet halo light behind a brick barrier, target pad, arena floor, reach the target",
    "push-wall": "Heavy jade puck behind a brick barrier, kitchen counter, push the puck",
    "push": "Heavy coral puck on a serving tray, kitchen counter, push the puck",
    "door-close": "Dark walnut door with a brass handle, hallway corridor, door swing shut",
    "door-open": "Dark walnut door with an iron knob, hallway corridor, door swing wide",
    "drawer-open": "Oak drawer with a round knob, office desk, pull the drawer out",
    "drawer-close": "Oak drawer with a bar handle, office desk, pull the drawer in",
    "faucet-open": "Chrome faucet with a curved spout, bathroom sink, turn the faucet on",
    "faucet-close": "Chrome faucet with a lever valve, bathroom sink, turn the faucet off",
    "plate-slide": "White ceramic plate with a glazed rim, canteen shelf, plate slide ahead",
    "plate-slide-back": "White ceramic plate on a metal disc, canteen shelf, plate slide home",
    "window-open": "Framed glass window with a pine sash, bedroom sill, window hoist up",
    "window-close": "Framed glass window with a foggy pane, bedroom sill, window hoist down",
}

# (family, fold-1 variant, fold-2 variant)
_VARIANTS = (
    ("button", "button-press", "button-press-wall"),
    ("reach", "reach", "reach-wall"),
    ("push", "push-wall", "push"),
    ("door", "door-close", "door-open"),
    ("drawer", "drawer-open", "drawer-close"),
    ("faucet", "faucet-open", "faucet-close"),
    ("plate", "plate-slide", "plate-slide-back"),
    ("window", "window-open", "window-close"),
)

# Layout sampling ranges, workspace units. Kept compact enough that expert
# episodes finish within ~100 steps (so a skip-3 video of 36 frames covers
# the whole demonstration).
_GRIP_START = {"x": (0.42, 0.60), "y": (0.70, 0.78)}

_RANGES = {
    "button-press": {"button": {"x": (0.30, 0.62), "y": (0.30, 0.40)}},
    "button-press-wall": {"button": {"x": (0.66, 0.74), "y": (0.38, 0.55)}},
    "reach": {"target": {"x": (0.22, 0.66), "y": (0.30, 0.46)}},
    "reach-wall": {
        "target": {"x": (0.12, 0.28), "y": (0.30, 0.42)},
        "wall_x": (0.40, 0.48), "wall_top": (0.44, 0.52), "grip_x": (0.56, 0.68),
    },
    "push": {
        "puck": {"x": (0.52, 0.64), "y": (0.32, 0.44)},
        "zone": {"x": (0.18, 0.30), "y": (0.32, 0.44)},
    },
    "push-wall": {
        "puck": {"x": (0.54, 0.64), "y": (0.30, 0.40)},
        "zone": {"x": (0.16, 0.26), "y": (0.30, 0.40)},
        "wall_x": (0.38, 0.46), "wall_top": (0.48, 0.54), "grip_x": (0.56, 0.68),
    },
    "door-close": {"hinge": {"x": (0.34, 0.52), "y": (0.52, 0.60)}, "angle": (1.10, 1.30)},
    "door-open": {"hinge": {"x": (0.34, 0.52), "y": (0.52, 0.60)}, "angle": (0.05, 0.20)},
    "drawer-open": {"face": {"x": (0.34, 0.60), "y": (0.52, 0.60)}, "ext": (0.0, 0.02)},
    "drawer-close": {"face": {"x": (0.34, 0.60), "y": (0.52, 0.60)}, "ext": (0.16, 0.18)},
    "faucet-open": {"center": {"x": (0.36, 0.60), "y": (0.36, 0.48)}, "angle": (-0.90, -0.70)},
    "faucet-close": {"center": {"x": (0.36, 0.60), "y": (0.36, 0.48)}, "angle": (0.70, 0.90)},
    "plate-slide": {"slot": {"x": (0.22, 0.32), "y": (0.34, 0.46)}, "slide": (0.0, 0.02)},
    "plate-slide-back": {"slot": {"x": (0.22, 0.32), "y": (0.34, 0.46)}, "slide": (0.28, 0.30)},
    "window-open": {"frame": {"x": (0.38, 0.60), "y": (0.34, 0.42)}, "ext": (0.0, 0.02)},
    "window-close": {"frame": {"x": (0.38, 0.60), "y": (0.34, 0.42)}, "ext": (0.13, 0.15)},
}


def _build_registry():
    reg = {}
    for family, v1, v2 in _VARIANTS:
        for fold, vid in ((1, v1), (2, v2)):
            reg[vid] = TaskSpec(task_id=vid, family=family, fold=fold, description=_DESCRIPTIONS[vid])
    return reg


REGISTRY = _build_registry()
TASK_IDS = tuple(REGISTRY)


def get_task(task_id):
    if isinstance(task_id, TaskSpec):
        return task_id
    try:
        return REGISTRY[task_id]
    except KeyError:
        raise ValueError(f"unknown task: {task_id!r}") from None


def write_registry(path):
    """Export the task registry as a tab-separated UTF-8 file.

    Each task is its own variant, so the variant column repeats the task id.
    """
    lines = ["task_id\tfamily\tvariant\tfold\tdescription"]
    for t in REGISTRY.values():
        lines.append(f"{t.task_id}\t{t.family}\t{t.task_id}\t{t.fold}\t{t.description}")
    storage.save_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Reset / layout sampling
# ---------------------------------------------------------------------------

def _unif(rng, lo_hi):
    return rng.uniform(lo_hi[0], lo_hi[1])


def _sample_pos(rng, ranges):
    return np.array([_unif(rng, ranges["x"]), _unif(rng, ranges["y"])])


def sample_layout(task, seed):
    """Draw the grip start, then every `_RANGES` entry in order.

    A position entry draws x then y; a scalar entry draws one value. A goal
    scalar without a range (press depth, dwell charge) starts at 0.
    """
    task = get_task(task)
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, _hash64(task.task_id)])
    r = _RANGES[task.task_id]
    pos, sca = {}, {}
    gx = r.get("grip_x", _GRIP_START["x"])
    pos["grip_start"] = np.array([_unif(rng, gx), _unif(rng, _GRIP_START["y"])])
    for name, lo_hi in r.items():
        if isinstance(lo_hi, dict):
            pos[name] = _sample_pos(rng, lo_hi)
        elif name != "grip_x":
            sca[name] = _unif(rng, lo_hi)
    if task.task_id in _GOAL:
        sca.setdefault(_GOAL[task.task_id][0], 0.0)
    return WorkspaceLayout(positions=pos, scalars=sca, seed=int(seed))


def reset(task, seed):
    """Sample a layout from `seed` and return (EnvState, Frame)."""
    state = next(replay_states(task, sample_layout(task, seed), ()))
    return state, render(state)


def replay_states(task, layout, actions):
    """Kinematic replay from an exact layout; renders nothing.

    Yields the start state, then the state after each action in turn, so a
    consumer that stops early takes no further step.
    """
    task = get_task(task)
    state = EnvState(task.task_id, layout.positions["grip_start"].copy(), False, layout.copy(), 0)
    yield state
    for a in actions:
        state, _ = step_state(state, a)
        yield state


# ---------------------------------------------------------------------------
# Mechanism geometry
# ---------------------------------------------------------------------------

# button variant -> press direction, into the base (button-press-wall's base is on the right wall)
_PRESS_AXIS = {"button-press": np.array([0.0, -1.0]), "button-press-wall": np.array([1.0, 0.0])}


def _button_tip(task_id, layout):
    c = CONFIG["button"]
    out = -_PRESS_AXIS[task_id]
    return layout.positions["button"] + out * (c["plunger_len"] - layout.scalars["depth"])


def _arm_point(fam, layout, angle):
    """End of a hinge family's arm at `angle`."""
    pivot, sign = _HINGE[fam]
    return layout.positions[pivot] + CONFIG[fam]["arm_len"] * np.array([np.sin(angle), sign * np.cos(angle)])


def _slide_point(fam, layout, s):
    """Handle of a slide family extended `s` along its axis."""
    base, axis = _SLIDE[fam]
    return layout.positions[base] + axis * s


def handle_point(task_id, layout):
    """Current grasp point of the scene's articulated object."""
    task = get_task(task_id)
    fam = task.family
    if fam == "button":
        return _button_tip(task.task_id, layout)
    if fam == "reach":
        return layout.positions["target"]
    if fam == "push":
        return layout.positions["puck"]
    s = layout.scalars[_GOAL[task.task_id][0]]
    return _arm_point(fam, layout, s) if fam in _HINGE else _slide_point(fam, layout, s)


def _wall_rect(layout):
    if "wall_x" not in layout.scalars:
        return None
    wx, wt = layout.scalars["wall_x"], layout.scalars["wall_top"]
    return (wx - WALL_HALF, wx + WALL_HALF, 0.0, wt)  # x0, x1, y0, y1


def _move_gripper(layout, pos, delta):
    """Move axis-by-axis, blocking at wall faces, then clamp to the workspace."""
    rect = _wall_rect(layout)
    p = pos.copy()
    for axis in (0, 1):
        d = delta[axis]
        if d == 0.0:
            continue
        cand = p.copy()
        cand[axis] += d
        if rect is not None:
            x0, x1, y0, y1 = rect
            if axis == 0 and y0 <= p[1] < y1:
                if p[0] <= x0 < cand[0]:
                    cand[0] = x0
                elif p[0] >= x1 > cand[0]:
                    cand[0] = x1
            elif axis == 1 and x0 < p[0] < x1:
                # walls rise from the floor; only block descents onto the top face
                if p[1] >= y1 > cand[1]:
                    cand[1] = y1
        p = cand
    return np.clip(p, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Step / success
# ---------------------------------------------------------------------------

def step(state, action):
    """Advance one step. Returns (new EnvState, Frame, success flag)."""
    new, suc = step_state(state, action)
    return new, render(new), suc


def step_state(state, action):
    """Kinematics-only step (no rendering); used for replay and pose tracks."""
    a = np.asarray(action, dtype=np.float64)
    if a.shape != (3,):
        raise ValueError("action out of range: expected 3 components")
    if np.any(np.abs(a) > 1.0 + 1e-9):
        raise ValueError("action out of range")
    if state.steps >= MAX_STEPS:
        raise ValueError("episode exhausted")

    task = get_task(state.task_id)
    new = state.copy()
    old_grip = state.gripper
    new.gripper = _move_gripper(new.layout, old_grip, STEP * a[:2])
    new.closed = bool(a[2] > 0.0)
    new.steps = state.steps + 1

    lay = new.layout
    fam = task.family
    g, moved = new.gripper, new.gripper - old_grip
    c = CONFIG[fam]
    # Engagement is judged where the move STARTED: an object picked up with
    # some grasp offset keeps that offset instead of slipping mid-move, which
    # also makes open-loop action replays stable.
    grasp_dist = np.linalg.norm(old_grip - handle_point(task.task_id, state.layout))
    engaged = new.closed and grasp_dist <= ENGAGE_R

    if fam == "button":
        tip = _button_tip(task.task_id, state.layout)
        axis_in = _PRESS_AXIS[task.task_id]
        lateral = (old_grip - tip) - np.dot(old_grip - tip, axis_in) * axis_in
        if engaged and np.linalg.norm(lateral) <= c["lateral_tol"]:
            adv = min(PRESS_RATE, max(0.0, float(np.dot(moved, axis_in))))
            lay.scalars["depth"] = min(_SPAN["button"][1], lay.scalars["depth"] + adv)
        else:
            # spring-loaded: the plunger backs out when released
            lay.scalars["depth"] = max(0.0, lay.scalars["depth"] - c["spring"])
    elif fam == "reach":
        if np.linalg.norm(g - lay.positions["target"]) <= c["radius"]:
            lay.scalars["charge"] = min(1.0, lay.scalars["charge"] + c["charge_rate"])
        else:
            lay.scalars["charge"] = 0.0
    elif fam == "push":
        if engaged:
            lay.positions["puck"] = np.clip(lay.positions["puck"] + moved, 0.03, 0.97)
    elif engaged and fam in _HINGE:
        pivot, sign = _HINGE[fam]
        p = lay.positions[pivot]
        t_new = np.arctan2(g[0] - p[0], sign * (g[1] - p[1]))
        dt = np.clip(t_new - lay.scalars["angle"], -HINGE_RATE, HINGE_RATE)
        lay.scalars["angle"] = float(np.clip(lay.scalars["angle"] + dt, *_SPAN[fam]))
    elif engaged and fam in _SLIDE:
        key = _GOAL[task.task_id][0]
        ds = np.clip(moved @ _SLIDE[fam][1], -PRISMATIC_RATE, PRISMATIC_RATE)
        lay.scalars[key] = float(np.clip(lay.scalars[key] + ds, *_SPAN[fam]))

    return new, success(new, task)


def success(state, task):
    """Pure per-family goal predicate."""
    task = get_task(task)
    lay, c = state.layout, CONFIG[task.family]
    if task.family == "push":
        return bool(np.linalg.norm(lay.positions["puck"] - lay.positions["zone"]) <= c["zone_tol"])
    scalar, key, sign = _GOAL[task.task_id]
    v = lay.scalars[scalar]
    return v >= c[key] if sign > 0 else v <= c[key]


# ---------------------------------------------------------------------------
# Waypoint plans (shared by the scripted expert and the pose planner)
# ---------------------------------------------------------------------------

def _goal_with_margin(task):
    """Target of a press, hinge or slide scalar: `_MARGIN` past its threshold, within `_SPAN`."""
    _, key, sign = _GOAL[task.task_id]
    return float(np.clip(CONFIG[task.family][key] + sign * _MARGIN[task.family], *_SPAN[task.family]))


def _object_goal_track(task, layout):
    """Grasp-phase gripper positions that carry a press, hinge or slide to its goal.

    Returns a list of positions along the articulation constraint, ending at
    a pose that satisfies the success predicate with margin.
    """
    fam = task.family
    if fam == "button":
        return [_button_tip(task.task_id, layout) + _drag_delta(task, layout, None)]
    if fam in _HINGE:
        th0, th1 = layout.scalars["angle"], _goal_with_margin(task)
        n = max(2, int(abs(th1 - th0) / ARC_STEP) + 1)
        return [_arm_point(fam, layout, t) for t in np.linspace(th0, th1, n + 1)[1:]]
    return [_slide_point(fam, layout, _goal_with_margin(task))]


def _route(layout, start, target):
    """Waypoints from start to target that clear the wall, if one is present."""
    target = np.asarray(target, dtype=float)
    rect = _wall_rect(layout)
    if rect is None:
        return [target]
    x0, x1, _, y1 = rect
    margin = 0.03
    lo, hi = min(start[0], target[0]), max(start[0], target[0])
    overlaps = hi >= x0 - margin and lo <= x1 + margin
    clear_y = y1 + 0.06
    if overlaps and (start[1] < clear_y or target[1] < clear_y):
        cross_y = max(clear_y, start[1])
        return [np.array([start[0], cross_y]), np.array([target[0], cross_y]), target]
    return [target]


def _next_waypoint(route, pos):
    """First route point actually away from pos (routes may start at pos)."""
    for p in route:
        if np.abs(p - pos).max() > 1e-9:
            return p
    return route[-1]


def waypoint_plan(task, layout):
    """Full gripper plan for a fresh layout: list of (position, closed) legs.

    Consecutive legs are straight moves; the boolean is the grip state held
    while moving toward that leg's endpoint.
    """
    task = get_task(task)
    start = layout.positions["grip_start"]
    grasp = handle_point(task.task_id, layout)
    legs = [(p, False) for p in _route(layout, start, grasp)]
    if task.family == "push":  # carry the puck by its offset to the zone
        carry = grasp + _drag_delta(task, layout, grasp)
        legs.extend((p, True) for p in _route(layout, grasp, carry))
    elif task.family != "reach":  # reach dwells at the target with the gripper open
        legs.extend((p, True) for p in _object_goal_track(task, layout))
    return legs


# ---------------------------------------------------------------------------
# Scripted expert
# ---------------------------------------------------------------------------

def _axis_step(delta, cap):
    """Axis-aligned move command toward delta, magnitude capped (action units)."""
    a = np.zeros(2)
    axis = 0 if abs(delta[0]) >= abs(delta[1]) else 1
    if abs(delta[axis]) < 1e-12:
        return a
    a[axis] = np.sign(delta[axis]) * min(cap, abs(delta[axis]) / STEP)
    return a


def _drag_delta(task, layout, g):
    """Gripper displacement that carries the object the rest of the way.

    Delta-tracked mechanisms (press, slide, push) are driven relative to the
    current object state so an engage-time offset never causes a shortfall;
    hinges track the gripper's absolute angle, so arc waypoints are absolute.
    """
    fam = task.family
    if fam == "button":
        need = _goal_with_margin(task) - layout.scalars["depth"]
        return _PRESS_AXIS[task.task_id] * max(0.0, need)
    if fam == "push":
        return layout.positions["zone"] - layout.positions["puck"]
    if fam in _SLIDE:
        return _SLIDE[fam][1] * (_goal_with_margin(task) - layout.scalars[_GOAL[task.task_id][0]])
    # hinge: head for the next absolute arc waypoint
    return _object_goal_track(task, layout)[0] - g


def expert_action(state, task):
    """Deterministic waypoint-following expert move for the current state.

    The grip closes only on a step index divisible by GRAB_ALIGN, idling at
    the handle for up to GRAB_ALIGN-1 steps first. Grasps then start exactly
    at frame-subsampling boundaries, which keeps open-loop replays of bridged
    actions faithful to the original grasp offset.
    """
    task = get_task(task)
    if success(state, task):
        return np.array([0.0, 0.0, -EXPERT_CAP])
    lay, g = state.layout, state.gripper
    grasp = handle_point(task.task_id, lay)
    dist = np.linalg.norm(g - grasp)

    # holding with margin: keep dragging rather than re-approaching, so the
    # grip never flips mid-drag (arc following drifts a little off the handle).
    # Reach never holds: it dwells at the target with the grip open.
    holding = state.closed and dist <= ENGAGE_R - 0.005 and task.family != "reach"
    if not holding:
        if dist > NEAR_TOL:
            target = _next_waypoint(_route(lay, g, grasp), g)
            return np.array([*(_axis_step(target - g, EXPERT_CAP)), -EXPERT_CAP])
        if task.family == "reach" or state.steps % GRAB_ALIGN != 0:
            return np.array([0.0, 0.0, -EXPERT_CAP])  # dwell (charge accumulates) or wait for a grab boundary

    # grab or keep holding: drive the object along its constraint
    delta = _drag_delta(task, lay, g)
    if task.family == "push":
        target = _next_waypoint(_route(lay, g, g + delta), g)
        return np.array([*(_axis_step(target - g, EXPERT_CAP)), EXPERT_CAP])
    return np.array([*(_axis_step(delta, EXPERT_CAP)), EXPERT_CAP])


def scripted_expert(state, task, epsilon, rng):
    """Expert action with epsilon-greedy uniform exploration."""
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("invalid epsilon")
    if epsilon > 0.0 and rng.random() < epsilon:
        return rng.uniform(-1.0, 1.0, size=3)
    return expert_action(state, task)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

# one background frame per family: `render` copies it, which costs far less
# than broadcasting a colour tuple over every pixel
_BG = {fam: np.full((RES, RES, 3), rgb, dtype=np.uint8) for fam, rgb in {
    "button": (34, 30, 30), "reach": (26, 32, 28), "push": (33, 31, 26),
    "door": (30, 28, 34), "drawer": (28, 31, 34), "faucet": (26, 33, 34),
    "plate": (32, 32, 30), "window": (28, 30, 36),
}.items()}
_ACCENT = {
    "button-press": (210, 40, 40), "button-press-wall": (60, 110, 230),
    "reach": (235, 180, 40), "reach-wall": (170, 80, 230),
    "push-wall": (40, 180, 120), "push": (240, 120, 90),
    "door-close": (150, 95, 45), "door-open": (150, 95, 45),
    "drawer-open": (185, 140, 70), "drawer-close": (185, 140, 70),
    "faucet-open": (130, 190, 220), "faucet-close": (130, 190, 220),
    "plate-slide": (230, 230, 220), "plate-slide-back": (230, 230, 220),
    "window-open": (120, 200, 210), "window-close": (120, 200, 210),
}
_GRIP_OPEN = (255, 255, 255)
_GRIP_CLOSED = (255, 200, 0)
_WALL_COLOR = (120, 120, 120)


def _px(u):
    """Nearest pixel index of workspace coordinate `u`, ties to even, clipped to the frame."""
    return min(RES - 1, max(0, round(float(u) * RES)))


def _discs(img, centers, radius_px, color):
    """Paint the union of discs around `centers` ((K, 2) workspace x, y) with one mask.

    Each centre rounds and clips to a pixel exactly as `_px` does.
    """
    c = np.minimum(np.maximum(np.rint(centers * RES), 0), RES - 1).astype(np.intp)
    xs, ys = c.T.tolist()
    r = int(radius_px)
    x0, x1 = max(0, min(xs) - r), min(RES - 1, max(xs) + r)
    y0, y1 = max(0, min(ys) - r), min(RES - 1, max(ys) + r)
    dx = np.arange(x0, x1 + 1) - c[:, 0, None, None]
    dy = np.arange(y0, y1 + 1)[:, None] - c[:, 1, None, None]
    mask = (dx * dx + dy * dy <= radius_px ** 2).any(axis=0)
    img[y0:y1 + 1, x0:x1 + 1][mask] = color


def _disc(img, center, radius_px, color):
    _discs(img, np.asarray(center, dtype=np.float64)[None], radius_px, color)


def _rect(img, x0, y0, x1, y1, color):
    a, b = sorted((_px(x0), _px(x1)))
    c, d = sorted((_px(y0), _px(y1)))
    img[c:d + 1, a:b + 1] = color


def _frame_rect(img, x0, y0, x1, y1, color):
    a, b = sorted((_px(x0), _px(x1)))
    c, d = sorted((_px(y0), _px(y1)))
    img[c, a:b + 1] = color
    img[d, a:b + 1] = color
    img[c:d + 1, a] = color
    img[c:d + 1, b] = color


def _segment(img, p0, p1, color):
    """1-px discs at 1.5 sample points per pixel of length from p0 to p1, drawn as one union."""
    p0, p1 = np.asarray(p0), np.asarray(p1)
    n = max(2, int(np.linalg.norm(p1 - p0) * RES * 1.5) + 1)
    t = np.linspace(0.0, 1.0, n)[:, None]
    _discs(img, (1 - t) * p0 + t * p1, 1, color)


def render(state):
    """Rasterize the scene, 64x64x3 uint8. Pure function of the state."""
    task = get_task(state.task_id)
    lay, fam, tid = state.layout, task.family, task.task_id
    img = _BG[fam].copy()
    accent = _ACCENT[tid]

    rect = _wall_rect(lay)
    if rect is not None:
        x0, x1, y0, y1 = rect
        _rect(img, x0, y0, x1, y1, _WALL_COLOR)

    if fam == "button":
        base = lay.positions["button"]
        tip = _button_tip(tid, lay)
        half = 0.035
        if tid == "button-press":
            _rect(img, base[0] - half, base[1] - 0.02, base[0] + half, base[1], (90, 90, 96))
            _rect(img, base[0] - 0.012, base[1], base[0] + 0.012, tip[1], accent)
        else:
            _rect(img, base[0], base[1] - half, base[0] + 0.02, base[1] + half, (90, 90, 96))
            _rect(img, tip[0], base[1] - 0.012, base[0], base[1] + 0.012, accent)
        _disc(img, tip, 2, accent)
    elif fam == "reach":
        t = lay.positions["target"]
        _frame_rect(img, t[0] - 0.045, t[1] - 0.045, t[0] + 0.045, t[1] + 0.045, (90, 100, 90))
        glow = tuple(min(255, int(v + 60 * lay.scalars["charge"])) for v in accent)
        _disc(img, t, 2, glow)
    elif fam == "push":
        z = lay.positions["zone"]
        _frame_rect(img, z[0] - 0.05, z[1] - 0.05, z[0] + 0.05, z[1] + 0.05, (150, 150, 150))
        _disc(img, lay.positions["puck"], 2.6, accent)
    elif fam == "door":
        h = lay.positions["hinge"]
        c = CONFIG["door"]
        end = handle_point(tid, lay)
        _segment(img, h, h + np.array([0.0, -c["arm_len"] - 0.02]), (70, 70, 78))  # jamb
        _segment(img, h, end, accent)
        _disc(img, h, 1, (200, 200, 200))
        _disc(img, end, 2, (235, 205, 95))
    elif fam == "drawer":
        f0 = lay.positions["face"]
        e = lay.scalars["ext"]
        _frame_rect(img, f0[0] - 0.07, f0[1], f0[0] + 0.07, f0[1] + 0.10, (110, 110, 116))  # cabinet
        _rect(img, f0[0] - 0.06, f0[1] - e, f0[0] + 0.06, f0[1] + 0.02, accent)             # drawer body
        _disc(img, handle_point(tid, lay), 2, (240, 240, 240))
    elif fam == "faucet":
        ctr = lay.positions["center"]
        _rect(img, ctr[0] - 0.02, ctr[1] - 0.03, ctr[0] + 0.02, ctr[1] + 0.02, (120, 120, 128))
        end = handle_point(tid, lay)
        _segment(img, ctr, end, accent)
        _disc(img, end, 2, (240, 240, 240))
    elif fam == "plate":
        s0 = lay.positions["slot"]
        c = CONFIG["plate"]
        _segment(img, s0, s0 + np.array([c["slide_max"], 0.0]), (80, 84, 80))
        goal_s = c[_GOAL[tid][1]]
        _frame_rect(img, s0[0] + goal_s - 0.035, s0[1] - 0.035, s0[0] + goal_s + 0.035, s0[1] + 0.035, (140, 140, 140))
        _disc(img, handle_point(tid, lay), 2.6, accent)
    elif fam == "window":
        f0 = lay.positions["frame"]
        c = CONFIG["window"]
        _frame_rect(img, f0[0] - 0.06, f0[1] - 0.01, f0[0] + 0.06, f0[1] + c["ext_max"] + 0.05, (120, 120, 126))
        _rect(img, f0[0] - 0.05, f0[1] + lay.scalars["ext"], f0[0] + 0.05, f0[1] + lay.scalars["ext"] + 0.035, accent)
        _disc(img, handle_point(tid, lay), 2, (240, 240, 240))

    _disc(img, state.gripper, 2, _GRIP_CLOSED if state.closed else _GRIP_OPEN)
    return img
