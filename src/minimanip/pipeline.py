"""End-to-end orchestration: demonstration generation, quality proxies,
filtering, and the two-fold cross-validation experiment.

The generated-data arm trains its video model and action labeler only on the
fold's few-shot expert data, generates demonstrations for every task from
text + planned poses, keeps the demonstrations whose labeled actions actually
solve their layout when replayed, and behavior-clones policies on the rest.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import data, diffusion, env, nn, prompts, storage
from . import inverse_dynamics as idm_mod
from . import policies as pol_mod
from .inverse_dynamics import FrameEncoder

REFERENCE_HUMAN_EVAL = {
    "few_shot": {"physical": 0.883, "accomplishment": 0.925, "consistency": 0.961},
    "zero_shot": {"physical": 0.579, "accomplishment": 0.632, "consistency": 0.716},
}


@dataclass
class GeneratedDemo:
    task_id: str
    seed: int
    layout: env.WorkspaceLayout
    poses: prompts.PoseSequence
    video: np.ndarray               # (36, 64, 64, 3) uint8
    actions: np.ndarray             # (35, 3) float32, labeled
    flags: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Replay and proxies
# ---------------------------------------------------------------------------

def replay_actions(task, layout, actions):
    """Whether an open-loop replay of labeled per-subsampled-step actions solves `layout`.

    Each labeled action runs for data.SKIP simulator steps at 1/data.SKIP
    magnitude, reproducing the net motion it encodes. The replay stops at
    the first successful step.
    """
    scale = 1.0 / data.SKIP
    steps = (a * scale for a in np.asarray(actions, dtype=np.float64) for _ in range(data.SKIP))
    states = env.replay_states(task, layout, steps)
    next(states)  # the start state: success counts only once an action has run
    return any(env.success(s, task) for s in states)


class VariantClassifier(nn.Module):
    """Frame-level patch encoder + 16-way variant head (video = frame mean)."""

    def __init__(self, rng, d=48):
        self.encoder = FrameEncoder(d, rng)
        self.head = nn.Linear(d, len(env.TASK_IDS), rng)

    def __call__(self, frames):
        """frames (B, 64, 64, 3) in [-1,1] -> (B, 16) logits."""
        return self.head(self.encoder(frames))

    def predict_video(self, video):
        """Most likely task id for a uint8 video, frame logits averaged."""
        x = data.to_unit(video)
        with nn.no_grad():
            logits = self(x).data.mean(axis=0)
        return env.TASK_IDS[int(np.argmax(logits))]


def train_variant_classifier(videos_by_task, steps=800, seed=0):
    """Fit the consistency-proxy classifier on expert videos of all variants."""
    ids = list(env.TASK_IDS)
    frames, labels = [], []
    for tid, vids in videos_by_task.items():
        k = ids.index(tid)
        for v in vids:
            frames.append(v)
            labels.append(np.full(len(v), k))
    frames = np.concatenate(frames)
    labels = np.concatenate(labels)
    rng = np.random.default_rng(seed)
    model = VariantClassifier(np.random.default_rng(seed + 1))
    opt = nn.Adam(model.params(), lr=1e-3)
    for it in range(steps):
        pick = rng.integers(0, len(frames), size=48)
        x = data.to_unit(frames[pick])
        x += rng.normal(0.0, 0.05, size=x.shape).astype(np.float32)
        opt.minimize(nn.cross_entropy(model(x), labels[pick]), it)
    return model


def quality_proxies(demo, classifier):
    """Automated stand-ins for the human rating criteria.

    replay_success: labeled actions solve the demo's own layout.
    plausible: per-step motion within 1.5 * env.STEP and pixels in range.
      Never False today: labels keep |a| <= 1, uint8 is in range (ROADMAP item 3).
    consistent: the variant classifier recognizes the demo's task.
    """
    if demo.actions is None or len(demo.actions) == 0:
        raise ValueError("unlabeled demo")
    replay_ok = replay_actions(demo.task_id, demo.layout, demo.actions)
    max_disp = float(np.abs(np.asarray(demo.actions)[:, :2]).max()) * env.STEP
    plausible = bool(max_disp <= 1.5 * env.STEP
                     and demo.video.dtype == np.uint8
                     and demo.video.min() >= 0 and demo.video.max() <= 255)
    consistent = classifier.predict_video(demo.video) == demo.task_id
    flags = {"replay_success": bool(replay_ok), "plausible": plausible, "consistent": bool(consistent)}
    demo.flags.update(flags)
    return flags


def filter_demonstrations(demos):
    """Keep demos whose labeled actions replay successfully and look sane."""
    kept = [d for d in demos if d.flags["replay_success"] and d.flags["plausible"]]
    stats = {
        "total": len(demos),
        "kept": len(kept),
        "discard_fraction": 1.0 - (len(kept) / len(demos)) if demos else 0.0,
    }
    return kept, stats


# ---------------------------------------------------------------------------
# Demo generation
# ---------------------------------------------------------------------------

def sample_demo_videos(task, n_demos, dvg_model, schedule, seed=0, batch=8):
    """Plan a layout and poses per demo, then sample the videos `batch` at a time.

    Demo m's layout comes from seed 700_000 + seed * 1_000 + m, and each chunk
    draws its noise from [seed, task hash, index of its first demo]. Every
    pose video is rendered before the first chunk is sampled. Yields
    (layout, poses, video) per demo, in order; a chunk is sampled only when
    its first video is asked for, so a consumer can label each chunk first.
    """
    task = env.get_task(task)
    text = prompts.task_embedding(task)
    layouts, pose_seqs, pose_vids = [], [], []
    for m in range(n_demos):
        layout = env.sample_layout(task, 700_000 + seed * 1_000 + m)
        poses = prompts.plan_pose(task, layout)
        layouts.append(layout)
        pose_seqs.append(poses)
        pose_vids.append(prompts.render_pose_video(poses))
    for lo in range(0, n_demos, batch):
        pv = np.stack(pose_vids[lo:lo + batch])
        texts = np.repeat(text[None], pv.shape[0], axis=0)
        rng = np.random.default_rng([seed, env._hash64(task.task_id), lo])
        videos = diffusion.sample_video(dvg_model, texts, pv, schedule, rng)
        for m, video in enumerate(videos, lo):
            yield layouts[m], pose_seqs[m], video


def generate_demonstrations(task, n_demos, dvg_model, idm_model, schedule,
                            seed=0, batch=8, *, classifier):
    """Alg.-2 loop: expand text, plan poses, sample videos, label actions, flag each demo."""
    if n_demos < 1:
        raise ValueError("n_demos must be >= 1")
    task_id = env.get_task(task).task_id
    demos = [GeneratedDemo(task_id=task_id, seed=layout.seed, layout=layout, poses=poses,
                           video=video, actions=idm_mod.label_video(idm_model, video))
             for layout, poses, video in sample_demo_videos(task, n_demos, dvg_model, schedule,
                                                            seed, batch)]
    for d in demos:
        quality_proxies(d, classifier)
    return demos


def demos_to_episodes(demos):
    """Generated demos -> BC episodes at the simulator-rate action scale."""
    return [pol_mod.BCEpisode(
        task_id=d.task_id,
        frames=d.video,
        actions=(np.asarray(d.actions, dtype=np.float32) / data.SKIP),
        history_stride=1,  # adjacent video frames are 3 sim steps apart
    ) for d in demos]


# ---------------------------------------------------------------------------
# Quality report (Table-3 analogue)
# ---------------------------------------------------------------------------

def quality_report(demo_sets):
    """Mean proxy rates per setting plus the paper's human-rater references.

    demo_sets: {"few_shot": [...], "zero_shot": [...]} of flagged demos.
    """
    rows = {}
    for setting, demos in demo_sets.items():
        if demos:
            rows[setting] = {
                "physical": float(np.mean([d.flags["plausible"] for d in demos])),
                "accomplishment": float(np.mean([d.flags["replay_success"] for d in demos])),
                "consistency": float(np.mean([d.flags["consistent"] for d in demos])),
                "n": len(demos),
            }
    if rows:
        keys = ("physical", "accomplishment", "consistency")
        rows["average"] = {k: float(np.mean([r[k] for r in rows.values()])) for k in keys}
        rows["average"]["n"] = int(sum(r["n"] for r in rows.values() if "n" in r))
    return {"proxies": rows, "human_reference": REFERENCE_HUMAN_EVAL}


# ---------------------------------------------------------------------------
# Cross-validation experiment
# ---------------------------------------------------------------------------

# A policy passes a task family when its accomplishment rate reaches this.
PASS_THRESHOLD = 0.5
ARCHITECTURES = ("lcbc", "rt1")


@dataclass
class CrossvalConfig:
    seed: int = 0
    n_expert_episodes: int = 20
    n_demos: int = 10
    collect_epsilon: float = 0.1
    dvg_steps: int = 800
    dvg_batch: int = 2
    dvg_T: int = 200
    sample_T: int = 32
    idm_steps: int = 1500
    policy_steps: int = 2500
    rt1_steps: int = 1600
    eval_episodes: int = 50
    folds: tuple = (1, 2)
    dvg_channels = diffusion.DvgConfig.channels  # not a setting: the DVG widths, read by perfbench

    def __post_init__(self):
        """Reject, naming the key, values that would fail only minutes into a run."""
        def check(key, ok, need):
            if not ok:
                raise ValueError(f"config key {key}: {getattr(self, key)!r} {need}")

        check("folds", len(self.folds) > 0 and set(self.folds) <= {1, 2}, "must list folds 1 and/or 2")
        for key in ("n_expert_episodes", "n_demos", "eval_episodes", "dvg_steps", "dvg_batch",
                    "idm_steps", "policy_steps", "rt1_steps"):
            check(key, getattr(self, key) >= 1, "must be >= 1")
        for key in ("dvg_T", "sample_T"):
            check(key, getattr(self, key) >= 2, "must be >= 2")

    def bc_steps(self, arch):
        """Behavior-cloning steps for one of ARCHITECTURES."""
        return {"lcbc": self.policy_steps, "rt1": self.rt1_steps}[arch]

    def hash(self):
        return storage.config_hash(asdict(self))


@dataclass
class ExperimentReport:
    """One crossval run: an architecture behavior-cloned on one arm of a fold, scored on every task."""
    fold: int
    arm: str                        # "expert" | "generated"
    arch: str
    rates: dict                     # task_id -> accomplishment rate
    totals: dict                    # setting -> "passed/8"
    passes: dict                    # setting -> {family: bool}


def _report(fold, arm, arch, rates):
    split = data.fold_split(fold)
    passes = {}
    for setting in ("few_shot", "zero_shot"):
        passes[setting] = {env.get_task(tid).family: bool(rates[tid] >= PASS_THRESHOLD)
                           for tid in getattr(split, setting)}
    totals = {setting: f"{sum(p.values())}/{len(p)}" for setting, p in passes.items()}
    return ExperimentReport(fold, arm, arch, rates, totals, passes)


def train_dvg_for_fold(trajs, cfg, seed_offset=0):
    """DVG training set from expert trajectories: video + task id + own poses."""
    items = []
    for traj in trajs:
        video = data.subsample_frames(traj)
        pos, clo = data.subsampled_pose_track(traj)
        poses = prompts.PoseSequence(positions=pos, closed=clo)
        items.append((video, traj.task_id, prompts.render_pose_video(poses)))
    dcfg = diffusion.DvgConfig(steps=cfg.dvg_steps, batch=cfg.dvg_batch,
                               seed=cfg.seed + seed_offset, T=cfg.dvg_T)
    return diffusion.train_dvg(items, dcfg)


def _score_arm(fold, arm, episodes, cfg, log, losses):
    """Behavior-clone every architecture on one arm's episodes and score it on all tasks.

    An arm without episodes scores 0 on every task. Returns one report per
    architecture, and records each trained policy's last loss in `losses`
    under "<arm> <arch>".
    """
    if not episodes:
        log(f"[fold {fold}] no {arm} demos to train on: {arm} arm rates are 0")
    reports = []
    for arch in ARCHITECTURES:
        if episodes:
            model, loss_log = pol_mod.train_policy(
                arch, episodes, pol_mod.BCConfig(steps=cfg.bc_steps(arch), seed=cfg.seed + fold))
            losses[f"{arm} {arch}"] = loss_log[-1]
            rates = pol_mod.rollout_eval(model, env.TASK_IDS, cfg.eval_episodes, cfg.seed + fold)
        else:
            rates = dict.fromkeys(env.TASK_IDS, 0.0)
        reports.append(_report(fold, arm, arch, rates))
        log(f"[fold {fold}] {arm} {arch}: few {reports[-1].totals['few_shot']} "
            f"zero {reports[-1].totals['zero_shot']}")
    return reports


def run_crossval(cfg=None, out_dir=None, log=print):
    """Both folds, both arms, both architectures; returns all reports.

    Fold hygiene: the generated arm's video and labeling models see only the
    fold's few-shot expert data; zero-shot tasks enter as text + planned
    poses only. The generated arm trains on the demos the filter keeps.
    """
    cfg = cfg or CrossvalConfig()
    reports, demo_sets = [], {"few_shot": [], "zero_shot": []}
    losses = {}  # fold -> the last training loss of each model the fold trained
    chash = cfg.hash()

    # consistency-proxy classifier: an evaluation artifact, trained once on
    # expert videos of all 16 variants
    vids_by_task = {}
    for tid in env.TASK_IDS:
        trajs = data.collect(tid, n_episodes=4, epsilon=cfg.collect_epsilon,
                             seed=900_000 + cfg.seed)
        vids_by_task[tid] = [data.subsample_frames(t) for t in trajs]
    classifier = train_variant_classifier(vids_by_task, seed=cfg.seed)
    log(f"[crossval {chash}] classifier ready")

    for fold in cfg.folds:
        split = data.fold_split(fold)
        fold_losses = losses[fold] = {}
        expert_trajs = []
        for tid in split.few_shot:
            expert_trajs.extend(data.collect(
                tid, n_episodes=cfg.n_expert_episodes,
                epsilon=cfg.collect_epsilon, seed=cfg.seed * 10_000 + fold * 1_000))
        log(f"[fold {fold}] collected {len(expert_trajs)} expert episodes")

        expert_eps = pol_mod.episodes_from_trajectories(expert_trajs)
        reports.extend(_score_arm(fold, "expert", expert_eps, cfg, log, fold_losses))

        # generated arm: DVG + IDM trained on few-shot data only
        dvg, dvg_log = train_dvg_for_fold(expert_trajs, cfg, seed_offset=fold)
        log(f"[fold {fold}] video model trained")
        idm_model, idm_log = idm_mod.train_idm(
            idm_mod.pack_video_windows(expert_trajs),
            idm_mod.IdmConfig(steps=cfg.idm_steps, seed=cfg.seed + fold))
        log(f"[fold {fold}] action labeler trained")
        fold_losses.update(dvg=dvg_log[-1], idm=idm_log[-1])

        schedule = diffusion.build_schedule(cfg.sample_T)
        all_demos = []
        for tid in env.TASK_IDS:
            demos = generate_demonstrations(
                tid, cfg.n_demos, dvg, idm_model, schedule,
                seed=cfg.seed * 100 + fold, classifier=classifier)
            all_demos.extend(demos)
            setting = "few_shot" if tid in split.few_shot else "zero_shot"
            demo_sets[setting].extend(demos)
        kept, stats = filter_demonstrations(all_demos)
        log(f"[fold {fold}] demos kept {stats['kept']}/{stats['total']} "
            f"(discard {stats['discard_fraction']:.0%})")
        kept_ids, all_ids = [d.task_id for d in kept], [d.task_id for d in all_demos]
        log(f"[fold {fold}] kept/total per task: " + ", ".join(
            f"{tid} {kept_ids.count(tid)}/{all_ids.count(tid)}" for tid in env.TASK_IDS))

        reports.extend(_score_arm(fold, "generated", demos_to_episodes(kept), cfg, log,
                                  fold_losses))

    quality = quality_report(demo_sets)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_reports(out_dir, reports, quality, cfg, losses)
    return reports, quality


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def reports_to_csv(reports):
    lines = ["fold,arm,arch,setting,task_id,family,rate,passed"]
    for r in reports:
        for setting, fam_pass in r.passes.items():
            for tid in getattr(data.fold_split(r.fold), setting):
                fam = env.get_task(tid).family
                lines.append(f"{r.fold},{r.arm},{r.arch},{setting},{tid},{fam},"
                             f"{r.rates[tid]:.4f},{int(fam_pass[fam])}")
    return "\n".join(lines) + "\n"


def summarize(reports):
    """Markdown table of each run's few-shot and zero-shot pass totals."""
    lines = ["| fold | arm | arch | few-shot | zero-shot |", "|---|---|---|---|---|"]
    lines += [f"| {r.fold} | {r.arm} | {r.arch} | {r.totals['few_shot']} | {r.totals['zero_shot']} |"
              for r in reports]
    return "\n".join(lines)


def write_reports(out_dir, reports, quality, cfg, final_losses):
    """report.json, the record of the run, and its two views rates.csv and summary.txt.

    final_losses maps each fold to the last training loss of its DVG
    ("dvg"), its IDM ("idm") and each policy it trained ("<arm> <arch>").
    """
    payload = {"config_hash": cfg.hash(), "config": asdict(cfg), "quality": quality,
               "final_losses": final_losses, "reports": [asdict(r) for r in reports]}
    storage.save_text(os.path.join(out_dir, "rates.csv"), reports_to_csv(reports))
    storage.save_text(os.path.join(out_dir, "summary.txt"), summarize(reports) + "\n")
    storage.save_text(os.path.join(out_dir, "report.json"), json.dumps(payload, indent=2, default=str))
