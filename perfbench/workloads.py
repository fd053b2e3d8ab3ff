"""The three benchmark workloads, one per kind of work in the experiment.

Each workload calls the public functions ``pipeline.run_crossval`` calls, at
step counts small enough to repeat: a full cross-validation is far too slow
to run many times per check.

A workload has a ``definition`` (hashed into every result), ``setup(seed)``
building the inputs and models outside the timed phase, ``run(inputs,
workdir)`` doing the timed work, ``check(outputs)`` returning the number of
output items checked and an (item, message) pair per failed check, ``digest(outputs)`` and ``work(outputs)`` counting what was done.
Every input comes from the seed; ``run`` does the same work on every call.
"""
from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from minimanip import data, diffusion, env, pipeline, policies, storage
from minimanip import inverse_dynamics as idm

from tracer import tree_bytes


class Digest:
    """sha256 over arrays and JSON-able values, fed in a fixed order."""

    def __init__(self):
        self.h = hashlib.sha256()

    def array(self, a):
        a = np.ascontiguousarray(a)
        self.h.update(f"{a.dtype.str}{a.shape}".encode())
        self.h.update(a.tobytes())

    def value(self, v):
        self.h.update(json.dumps(v, sort_keys=True, default=str).encode())

    def hexdigest(self):
        return self.h.hexdigest()[:16]


class Generate:
    """Text + poses -> sampled video -> labelled actions -> proxies -> filter.

    A random-init full-size denoiser costs what a trained one does and keeps
    the outputs seeded. The two-step schedule keeps labelling, proxies and
    pose planning visible beside the denoiser; 3 demos in batches of 2 run a
    full and a ragged chunk, whose per-video cost differs.
    """

    name = "generate"
    definition = {
        "tasks": ["door-open", "drawer-close", "push-wall"],
        "n_demos": 3,
        "batch": 2,
        "sample_T": 2,
        "schedule": "cosine",
        "models": "random-init VideoDenoiser(), ActionDecoder(), VariantClassifier()",
    }

    def setup(self, seed):
        d = self.definition
        return {
            "seed": seed,
            "dvg": diffusion.VideoDenoiser(np.random.default_rng([seed, 1])),
            "idm": idm.ActionDecoder(np.random.default_rng([seed, 2])),
            "classifier": pipeline.VariantClassifier(np.random.default_rng([seed, 3])),
            "schedule": diffusion.build_schedule(d["sample_T"], d["schedule"]),
        }

    def run(self, inp, workdir):
        d = self.definition
        demos = []
        for tid in d["tasks"]:
            demos.extend(pipeline.generate_demonstrations(
                tid, d["n_demos"], inp["dvg"], inp["idm"], inp["schedule"],
                seed=inp["seed"], batch=d["batch"], classifier=inp["classifier"]))
        kept, stats = pipeline.filter_demonstrations(demos)
        episodes = pipeline.demos_to_episodes(kept)
        return {"demos": demos, "kept": kept, "stats": stats, "episodes": episodes}

    def check(self, out):
        fails = []
        want = len(self.definition["tasks"]) * self.definition["n_demos"]
        if len(out["demos"]) != want:
            fails.append(("demos", f"{len(out['demos'])} generated, expected {want}"))
        for i, dm in enumerate(out["demos"]):
            if dm.video.shape != (36, 64, 64, 3) or dm.video.dtype != np.uint8:
                fails.append((f"demo {i}", f"video {dm.video.shape} {dm.video.dtype}"))
            a = np.asarray(dm.actions)
            if a.shape != (35, 3) or not np.all(np.isfinite(a)) or np.abs(a).max() > 1.0:
                fails.append((f"demo {i}", f"actions shape {a.shape} or out of [-1, 1]"))
            missing = {"replay_success", "plausible", "consistent"} - set(dm.flags)
            if missing:
                fails.append((f"demo {i}", f"proxy flags missing {sorted(missing)}"))
        if out["stats"]["total"] != len(out["demos"]) or out["stats"]["kept"] != len(out["kept"]):
            fails.append(("filter", f"stats {out['stats']} disagree with the demo lists"))
        if len(out["episodes"]) != len(out["kept"]):
            fails.append(("episodes", "demos_to_episodes dropped or added episodes"))
        return len(out["demos"]), fails

    def digest(self, out):
        dg = Digest()
        for dm in out["demos"]:
            dg.value([dm.task_id, dm.seed, dm.flags])
            dg.array(dm.video)
            dg.array(dm.actions)
        dg.value(out["stats"])
        return dg.hexdigest()

    def work(self, out):
        return {"demos": len(out["demos"]), "demos_kept": len(out["kept"])}


class Train:
    """All four model types plus the proxy classifier, with checkpoints.

    Step counts keep CrossvalConfig's time shares, scaled down: DVG ~40%,
    rt1 ~33%, IDM ~14%, lcbc ~11%. The fold-1 expert data is set-up.
    """

    name = "train"
    definition = {
        "fold": 1,
        "n_expert_episodes": 2,
        "collect_epsilon": 0.1,
        "dvg_steps": 2,
        "dvg_batch": 2,
        "idm_steps": 4,
        "lcbc_steps": 16,
        "rt1_steps": 9,
        "classifier_steps": 5,
    }

    def setup(self, seed):
        d = self.definition
        trajs = []
        for tid in data.fold_split(d["fold"]).few_shot:
            trajs.extend(data.collect(tid, n_episodes=d["n_expert_episodes"],
                                      epsilon=d["collect_epsilon"],
                                      seed=seed * 10_000 + d["fold"] * 1_000))
        videos = {}
        for t in trajs:
            videos.setdefault(t.task_id, []).append(data.subsample_frames(t))
        cfg = pipeline.CrossvalConfig(seed=seed, dvg_steps=d["dvg_steps"], dvg_batch=d["dvg_batch"])
        return {"seed": seed, "trajs": trajs, "videos": videos, "cfg": cfg}

    def run(self, inp, workdir):
        d, seed, trajs = self.definition, inp["seed"], inp["trajs"]
        cfg = inp["cfg"]
        fold_seed = seed + d["fold"]
        dvg, dvg_log = pipeline.train_dvg_for_fold(trajs, cfg, seed_offset=d["fold"])
        idm_model, idm_log = idm.train_idm(
            idm.pack_video_windows(trajs), idm.IdmConfig(steps=d["idm_steps"], seed=fold_seed))
        episodes = policies.episodes_from_trajectories(trajs)
        lcbc, lcbc_log = policies.train_policy(
            "lcbc", episodes, policies.BCConfig(steps=d["lcbc_steps"], seed=fold_seed))
        rt1, rt1_log = policies.train_policy(
            "rt1", episodes, policies.BCConfig(steps=d["rt1_steps"], seed=fold_seed))
        classifier = pipeline.train_variant_classifier(
            inp["videos"], steps=d["classifier_steps"], seed=seed)
        models = {
            "dvg": (dvg, {"channels": list(cfg.dvg_channels)}),
            "idm": (idm_model, {"d": idm_model.d, "window": idm_model.window}),
            "lcbc": (lcbc, {"d": lcbc.d}),
            "rt1": (rt1, {"d": rt1.d, "history": rt1.history}),
            "classifier": (classifier, {}),
        }
        loaded = {}
        for kind, (model, init) in models.items():
            path = os.path.join(workdir, f"{kind}.ckpt")
            storage.save_model(path, model, kind, init)
            loaded[kind] = storage.load_model(path)[0]
        return {"models": {k: m for k, (m, _) in models.items()}, "loaded": loaded,
                "logs": {"dvg": dvg_log, "idm": idm_log, "lcbc": lcbc_log, "rt1": rt1_log},
                "ckpt_bytes": tree_bytes(workdir)}

    def check(self, out):
        fails = []
        for kind, log in out["logs"].items():
            if not log or not np.all(np.isfinite(log)):
                fails.append((kind, "loss log empty or not finite"))
        for kind, model in out["models"].items():
            want, got = model.state(), out["loaded"][kind].state()
            if set(want) != set(got):
                fails.append((kind, "checkpoint parameter names differ"))
                continue
            for k in want:
                if not np.all(np.isfinite(want[k])):
                    fails.append((kind, f"{k}: parameter not finite"))
                if want[k].dtype != got[k].dtype or not np.array_equal(want[k], got[k]):
                    fails.append((kind, f"{k}: checkpoint round trip changed the parameter"))
        return len(out["models"]), fails

    def digest(self, out):
        dg = Digest()
        for kind in sorted(out["logs"]):
            dg.array(np.asarray(out["logs"][kind], dtype=np.float64))
        for kind in sorted(out["models"]):
            state = out["models"][kind].state()
            for k in sorted(state):
                dg.array(state[k])
        return dg.hexdigest()

    def work(self, out):
        d = self.definition
        steps = {k: len(v) for k, v in out["logs"].items()}
        steps["classifier"] = d["classifier_steps"]
        return {"optimiser_steps": steps, "checkpoint_bytes_written": out["ckpt_bytes"],
                "checkpoint_bytes_read": out["ckpt_bytes"]}


class Simulate:
    """Expert collection with an episode-file round trip, then lockstep rollouts.

    Random-init policies act for a few steps in all 16 tasks x 10 episodes
    at once (the evaluation batch), so rendering and per-step inference
    dominate; nothing here touches diffusion.
    """

    name = "simulate"
    definition = {
        "collect_episodes_per_task": 3,
        "collect_epsilon": 0.1,
        "rollout_archs": ["lcbc", "rt1"],
        "rollout_episodes_per_task": 10,
        "rollout_max_steps": 3,
        "models": "random-init make_policy(arch)",
    }

    def setup(self, seed):
        d = self.definition
        pairs = [(tid, seed * 100_003 + e) for tid in env.TASK_IDS
                 for e in range(d["rollout_episodes_per_task"])]
        models = {arch: policies.make_policy(arch, np.random.default_rng([seed, i]))
                  for i, arch in enumerate(d["rollout_archs"])}
        return {"seed": seed, "pairs": pairs, "models": models}

    def run(self, inp, workdir):
        d = self.definition
        trajs = []
        for tid in env.TASK_IDS:
            trajs.extend(data.collect(tid, n_episodes=d["collect_episodes_per_task"],
                                      epsilon=d["collect_epsilon"], seed=inp["seed"] * 1_000))
        data.save_dataset(trajs, workdir)
        loaded = data.load_dataset(workdir)
        done = {arch: policies.rollout_many(model, inp["pairs"], max_steps=d["rollout_max_steps"])
                for arch, model in inp["models"].items()}
        return {"trajs": trajs, "loaded": loaded, "done": done,
                "file_bytes": tree_bytes(workdir)}

    def check(self, out):
        fails = []
        want = len(env.TASK_IDS) * self.definition["collect_episodes_per_task"]
        if len(out["trajs"]) != want:
            fails.append(("collect", f"{len(out['trajs'])} episodes, expected {want}"))
        back = {(t.task_id, t.seed): t for t in out["loaded"]}
        if len(back) != len(out["loaded"]) or len(back) != len(out["trajs"]):
            fails.append(("files", f"{len(out['loaded'])} episodes read, {len(out['trajs'])} written"))
        for t in out["trajs"]:
            if not t.success:
                fails.append((f"{t.task_id}/{t.seed}", "collected episode did not succeed"))
            r = back.get((t.task_id, t.seed))
            if r is None or not _same_trajectory(t, r):
                fails.append((f"{t.task_id}/{t.seed}", "episode file does not read back as written"))
        n_pairs = len(env.TASK_IDS) * self.definition["rollout_episodes_per_task"]
        for arch, done in out["done"].items():
            if done.shape != (n_pairs,) or done.dtype != bool:
                fails.append((arch, f"rollout flags {done.shape} {done.dtype}"))
        return len(out["trajs"]) + len(out["done"]), fails

    def digest(self, out):
        dg = Digest()
        for t in out["trajs"]:
            dg.value([t.task_id, t.seed, bool(t.success)])
            dg.array(t.frames)
            dg.array(t.actions)
        for arch in sorted(out["done"]):
            dg.array(out["done"][arch])
        return dg.hexdigest()

    def work(self, out):
        return {"episodes_collected": len(out["trajs"]),
                "collect_env_steps": int(sum(len(t.actions) for t in out["trajs"])),
                "rollout_successes": {a: int(d.sum()) for a, d in out["done"].items()},
                "episode_bytes_written": out["file_bytes"],
                "episode_bytes_read": out["file_bytes"]}


def _same_trajectory(a, b):
    return (a.task_id == b.task_id and a.seed == b.seed and a.epsilon == b.epsilon
            and a.success == b.success and a.layout.seed == b.layout.seed
            and np.array_equal(a.frames, b.frames) and np.array_equal(a.actions, b.actions)
            and a.frames.dtype == b.frames.dtype and a.actions.dtype == b.actions.dtype
            and a.layout.positions.keys() == b.layout.positions.keys()
            and all(np.array_equal(a.layout.positions[k], b.layout.positions[k])
                    for k in a.layout.positions)
            and a.layout.scalars == b.layout.scalars)


WORKLOADS = {w.name: w for w in (Generate(), Train(), Simulate())}
