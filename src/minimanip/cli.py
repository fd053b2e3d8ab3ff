"""Command-line front end. One subcommand per pipeline stage.

The library API is the primary surface; these commands are thin wrappers
that wire files to the corresponding functions.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np


def _cmd_registry(args):
    from . import env
    env.write_registry(args.out)
    print(f"wrote {len(env.REGISTRY)} tasks to {args.out}")


def _cmd_collect(args):
    from . import data
    trajs = data.collect(args.task, n_episodes=args.episodes, epsilon=args.epsilon,
                         max_steps=args.max_steps, seed=args.seed)
    data.save_dataset(trajs, args.out)
    lengths = [len(t.actions) for t in trajs]
    print(f"saved {len(trajs)} episodes to {args.out} (steps min/mean/max "
          f"{min(lengths)}/{int(np.mean(lengths))}/{max(lengths)})")


def _cmd_expand(args):
    from . import env, prompts
    text = env.get_task(args.task).description if args.task else args.text
    p = prompts.expand_prompt(text)
    print(p.expanded)


def _cmd_similarity(args):
    from . import env, prompts, storage
    descs = [t.description for t in env.REGISTRY.values()]
    names = list(env.REGISTRY)
    mat = prompts.similarity_matrix([prompts.expand_prompt(d) for d in descs])
    lines = ["task," + ",".join(names)]
    lines += [name + "," + ",".join(f"{v:.6f}" for v in row) for name, row in zip(names, mat)]
    storage.save_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {mat.shape[0]}x{mat.shape[1]} similarity matrix to {args.out}")


def _load_trajs(root, task_ids=None):
    from . import data
    trajs = data.load_dataset(root, task_ids=task_ids)
    if not trajs:
        raise SystemExit(f"no episodes found under {root}")
    return trajs


def _cmd_train_dvg(args):
    from . import data, pipeline, storage
    split = data.fold_split(args.fold)
    trajs = _load_trajs(args.data, task_ids=set(split.few_shot))
    cfg = pipeline.CrossvalConfig(seed=args.seed, dvg_steps=args.steps)
    model, log = pipeline.train_dvg_for_fold(trajs, cfg)
    storage.save_model(args.out, model, "dvg",
                       {"channels": list(model.channels)},
                       {"seed": args.seed, "config_hash": cfg.hash(), "final_loss": log[-1]})
    print(f"trained {args.steps} steps (loss {log[0]:.3f} -> {log[-1]:.3f}); saved {args.out}")


def _cmd_sample(args):
    from . import diffusion, env, pipeline, storage
    model, _ = storage.load_model(args.ckpt)
    schedule = diffusion.build_schedule(args.T, args.kind)
    task_id = env.get_task(args.task).task_id
    os.makedirs(args.out, exist_ok=True)
    videos = pipeline.sample_demo_videos(task_id, args.count, model, schedule, seed=args.seed)
    for m, (_, _, video) in enumerate(videos):
        storage.save_arrays(os.path.join(args.out, f"{task_id}_{m:03d}.bin"), {"frames": video},
                            {"kind": "video", "task_id": task_id, "seed": args.seed})
    print(f"sampled {args.count} videos to {args.out}")


def _cmd_train_idm(args):
    from . import data, pipeline, storage
    from . import inverse_dynamics as idm
    split = data.fold_split(args.fold)
    trajs = _load_trajs(args.data, task_ids=set(split.few_shot))
    cfg = idm.IdmConfig(steps=pipeline.CrossvalConfig().idm_steps, seed=args.seed, window=args.window)
    model, log = idm.train_idm(idm.pack_video_windows(trajs), cfg)
    storage.save_model(args.out, model, "idm",
                       {"d": model.d, "window": model.window},
                       {"seed": args.seed, "final_loss": log[-1]})
    print(f"trained (loss {log[0]:.3f} -> {log[-1]:.3f}); saved {args.out}")


def _cmd_label(args):
    from . import storage
    from . import inverse_dynamics as idm
    model, _ = storage.load_model(args.ckpt)
    arrays, _ = storage.load_arrays(args.video, "video")
    actions = idm.label_video(model, arrays["frames"])
    storage.save_arrays(args.out, {"actions": actions}, {"kind": "actions", "video": args.video})
    print(f"labeled {len(actions)} steps -> {args.out}")


def _cmd_idm_study(args):
    from . import storage
    from . import inverse_dynamics as idm
    rows = idm.generalization_study(
        [int(v) for v in args.families.split(",")],
        [int(v) for v in args.traj.split(",")],
        seed=args.seed)
    lines = ["families,traj_per_task,few_shot_acc,zero_shot_acc"]
    lines += [f"{r['families']},{r['traj_per_task']},{r['few_shot_acc']:.4f},{r['zero_shot_acc']:.4f}" for r in rows]
    storage.save_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(rows)} cells to {args.out}")


def _cmd_train_policy(args):
    from . import data, pipeline, policies, storage
    split = data.fold_split(args.fold)
    trajs = _load_trajs(args.data, task_ids=set(split.few_shot))
    eps = policies.episodes_from_trajectories(trajs)
    steps = pipeline.CrossvalConfig().bc_steps(args.arch) if args.steps is None else args.steps
    cfg = policies.BCConfig(steps=steps, seed=args.seed)
    model, log = policies.train_policy(args.arch, eps, cfg)
    storage.save_model(args.out, model, args.arch,
                       {"d": cfg.d, "blocks": cfg.blocks} | ({"history": model.history} if args.arch == "rt1" else {}),
                       {"seed": args.seed, "final_loss": log[-1]})
    print(f"trained {args.arch} (loss {log[0]:.3f} -> {log[-1]:.3f}); saved {args.out}")


def _cmd_eval(args):
    from . import policies, storage
    model, _ = storage.load_model(args.ckpt)
    (rate,) = policies.rollout_eval(model, [args.task], episodes=args.episodes, seed=args.seed).values()
    print(f"{args.task}: accomplishment rate {rate:.3f} over {args.episodes} episodes")


def _parse_config_file(path):
    out = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{lineno}: expected key=value, got {line!r}")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def _config_value(key, typ, v):
    """Parse one config value by its type name: int or float."""
    try:
        return int(v) if typ == "int" else float(v)
    except ValueError:
        raise SystemExit(f"config key {key}: {v!r} is not a valid {typ}") from None


def _cmd_crossval(args):
    from . import pipeline
    kw = {}
    if args.config:
        fields = pipeline.CrossvalConfig.__dataclass_fields__
        for k, v in _parse_config_file(args.config).items():
            if k not in fields:
                raise SystemExit(f"unknown config key: {k}")
            if fields[k].type == "tuple":  # comma-separated, typed like the default's items
                elem = type(fields[k].default[0]).__name__
                kw[k] = tuple(_config_value(k, elem, x.strip()) for x in v.split(","))
            else:
                kw[k] = _config_value(k, fields[k].type, v)
    try:
        cfg = pipeline.CrossvalConfig(**kw)
    except ValueError as e:
        raise SystemExit(str(e)) from None
    reports, quality = pipeline.run_crossval(cfg, out_dir=args.out)
    print(pipeline.summarize(reports))


def _cmd_report(args):
    from . import pipeline
    path = os.path.join(args.indir, "report.json")
    try:
        with open(path, encoding="utf-8") as f:
            reports = [pipeline.ExperimentReport(**r) for r in json.load(f)["reports"]]
    except (OSError, ValueError, LookupError, TypeError) as e:
        raise SystemExit(f"cannot read crossval report {path}: {e}") from None
    if args.format == "csv":
        sys.stdout.write(pipeline.reports_to_csv(reports))
    else:
        print(pipeline.summarize(reports))


def main(argv=None):
    from . import data, env, pipeline
    budgets = pipeline.CrossvalConfig()  # the stage commands default to the experiment's budgets
    ap = argparse.ArgumentParser(prog="minimanip", description="Desk-scale skill learning from generated demonstration videos.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("registry", help="export the task registry file")
    p.add_argument("--out", default="tasks.tsv")
    p.set_defaults(fn=_cmd_registry)

    p = sub.add_parser("collect", help="collect scripted-expert episodes")
    p.add_argument("--task", required=True)
    p.add_argument("--episodes", type=int, default=budgets.n_expert_episodes)
    p.add_argument("--epsilon", type=float, default=budgets.collect_epsilon)
    p.add_argument("--max-steps", type=int, default=env.MAX_STEPS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_collect)

    p = sub.add_parser("expand", help="expand a task description")
    p.add_argument("--task")
    p.add_argument("--text")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("similarity", help="write the prompt similarity matrix")
    p.add_argument("--out", default="matrix.csv")
    p.set_defaults(fn=_cmd_similarity)

    p = sub.add_parser("train-dvg", help="train the video generator on a fold")
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--steps", type=int, default=budgets.dvg_steps)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train_dvg)

    p = sub.add_parser("sample", help="sample demonstration videos")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--T", type=int, default=budgets.sample_T)
    p.add_argument("--kind", default="cosine")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("train-idm", help="train the action labeler on a fold")
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--window", type=int, default=data.WINDOW)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train_idm)

    p = sub.add_parser("label", help="label a video file with actions")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--video", required=True)
    p.add_argument("--out", default="actions.bin")
    p.set_defaults(fn=_cmd_label)

    p = sub.add_parser("idm-study", help="labeler generalization study")
    p.add_argument("--families", default="2,8")
    p.add_argument("--traj", default="10,20")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="report.csv")
    p.set_defaults(fn=_cmd_idm_study)

    p = sub.add_parser("train-policy", help="behavior-clone a policy")
    p.add_argument("--arch", choices=pipeline.ARCHITECTURES, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--fold", type=int, default=1)
    p.add_argument("--steps", type=int, help="default by --arch: " + ", ".join(
        f"{arch} {budgets.bc_steps(arch)}" for arch in pipeline.ARCHITECTURES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train_policy)

    p = sub.add_parser("eval", help="closed-loop accomplishment rate")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--episodes", type=int, default=budgets.eval_episodes)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("crossval", help="run the two-fold experiment")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_crossval)

    p = sub.add_parser("report", help="render a crossval report")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--format", choices=("csv", "md"), default="md")
    p.set_defaults(fn=_cmd_report)

    args = ap.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
