import dataclasses
import pathlib
import re

import numpy as np
import pytest

from minimanip import cli, data, diffusion, env, pipeline, policies, storage
from minimanip import inverse_dynamics as idm


def test_collect_label_eval_chain(tmp_path, capsys):
    """Every file the chain writes is a storage container: episodes, the DVG
    checkpoint, sampled videos, labelled actions and the policy checkpoint."""
    episodes, dvg_ckpt, videos = tmp_path / "episodes", tmp_path / "dvg.ckpt", tmp_path / "videos"
    cli.main(["collect", "--task", "reach", "--episodes", "1", "--seed", "0", "--out", str(episodes)])
    cli.main(["train-dvg", "--fold", "1", "--data", str(episodes), "--steps", "1", "--out", str(dvg_ckpt)])
    cli.main(["sample", "--ckpt", str(dvg_ckpt), "--task", "reach", "--T", "2", "--out", str(videos)])

    idm_ckpt = tmp_path / "idm.ckpt"
    init = {"d": 16, "temporal_blocks": 1}
    storage.save_model(idm_ckpt, idm.ActionDecoder(np.random.default_rng(0), **init), "idm", init)
    actions = tmp_path / "actions.bin"
    cli.main(["label", "--ckpt", str(idm_ckpt), "--video", str(videos / "reach_000.bin"), "--out", str(actions)])
    labels = storage.load_arrays(actions, "actions")[0]["actions"]
    assert labels.shape == (35, 3)
    assert np.all(np.abs(labels) <= 1.0)

    lcbc_ckpt = tmp_path / "lcbc.ckpt"
    cli.main(["train-policy", "--arch", "lcbc", "--data", str(episodes), "--steps", "1", "--out", str(lcbc_ckpt)])
    cli.main(["eval", "--ckpt", str(lcbc_ckpt), "--task", "reach", "--episodes", "1"])
    out = capsys.readouterr().out
    assert "saved 1 episodes" in out
    assert "sampled 1 videos" in out
    assert "labeled 35 steps" in out
    assert "trained lcbc" in out
    assert "reach: accomplishment rate" in out
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == [
        "actions.bin", "dvg.ckpt", "idm.ckpt", "lcbc.ckpt", "reach_000.bin", "reach_00000000.episode"]


def test_collect_steps_default_to_the_simulator_limit(tmp_path, monkeypatch):
    """--max-steps follows env.MAX_STEPS: a lowered limit reaches data.collect."""
    seen = {}

    def collect(task, **kwargs):  # record the call; nothing is rolled out or written
        seen.update(kwargs)
        raise SystemExit("collect called")

    monkeypatch.setattr(data, "collect", collect)
    monkeypatch.setattr(env, "MAX_STEPS", 7)
    with pytest.raises(SystemExit, match="collect called"):
        cli.main(["collect", "--task", "reach", "--out", str(tmp_path / "episodes")])
    assert seen["max_steps"] == env.MAX_STEPS == 7


@pytest.mark.parametrize("loader", ["load_trajectory", "label", "load_model"])
def test_loaders_reject_other_kinds(tmp_path, loader):
    idm_ckpt = tmp_path / "idm.ckpt"
    init = {"d": 16, "temporal_blocks": 1}
    storage.save_model(idm_ckpt, idm.ActionDecoder(np.random.default_rng(0), **init), "idm", init)
    load, accepts = {
        "load_trajectory": (data.load_trajectory, ("episode",)),
        "label": (lambda p: cli.main(["label", "--ckpt", str(idm_ckpt), "--video", str(p),
                                      "--out", str(tmp_path / "out.bin")]), ("video",)),
        "load_model": (storage.load_model, storage.MODEL_KINDS),
    }[loader]
    expected = " or ".join(f"'{k}'" for k in accepts)
    for kind in ("episode", "video", "actions", "idm"):
        if kind in accepts:
            continue
        path = tmp_path / f"{kind}.bin"
        storage.save_arrays(path, {"x": np.ones(2, np.uint8)}, {"kind": kind})
        with pytest.raises(ValueError, match=f"{kind}.bin holds kind '{kind}', expected {expected}"):
            load(path)


def test_sample_writes_the_videos_generate_demonstrations_samples(tmp_path):
    ckpt = tmp_path / "dvg.ckpt"
    storage.save_model(ckpt, diffusion.VideoDenoiser(np.random.default_rng(0), channels=(2, 3, 4)),
                       "dvg", {"channels": [2, 3, 4]})
    cli.main(["sample", "--ckpt", str(ckpt), "--task", "door-open", "--count", "3", "--seed", "5",
              "--T", "2", "--out", str(tmp_path / "videos")])
    labeler = idm.ActionDecoder(np.random.default_rng(1), d=16, temporal_blocks=1)
    demos = pipeline.generate_demonstrations("door-open", 3, storage.load_model(ckpt)[0], labeler,
                                             diffusion.build_schedule(2, "cosine"), seed=5,
                                             classifier=pipeline.VariantClassifier(np.random.default_rng(2), d=8))
    written = sorted((tmp_path / "videos").iterdir())
    assert [p.name for p in written] == [f"door-open_{m:03d}.bin" for m in range(3)]
    for path, demo in zip(written, demos):
        assert np.array_equal(storage.load_arrays(path, "video")[0]["frames"], demo.video)


def test_train_idm_and_idm_study(tmp_path, monkeypatch):
    """Both commands run end to end; every IDM they train takes one step at a tiny width."""
    train_idm = idm.train_idm
    monkeypatch.setattr(idm, "train_idm", lambda packed, config: train_idm(
        packed, dataclasses.replace(config, steps=1, batch=1, d=8)))
    episodes, ckpt, study = tmp_path / "episodes", tmp_path / "idm.ckpt", tmp_path / "study.csv"
    cli.main(["collect", "--task", "reach", "--episodes", "1", "--out", str(episodes)])
    cli.main(["train-idm", "--fold", "1", "--data", str(episodes), "--out", str(ckpt)])
    cli.main(["idm-study", "--families", "1", "--traj", "1", "--out", str(study)])
    model, meta = storage.load_model(ckpt)
    assert meta["kind"] == "idm" and model.d == 8 and model.window == data.WINDOW
    lines = study.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "families,traj_per_task,few_shot_acc,zero_shot_acc"
    assert len(lines) == 2 and lines[1].startswith("1,1,")


@pytest.mark.parametrize("content", [None, b"\xff{", b"[]", b'{"reports": [{"fold": 1}]}'],
                         ids=["missing", "undecodable", "not-an-object", "bad-record"])
def test_report_names_an_unreadable_report(tmp_path, content):
    path = tmp_path / "report.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(SystemExit, match=f"cannot read crossval report {re.escape(str(path))}: "):
        cli.main(["report", "--in", str(tmp_path)])


@pytest.mark.parametrize("line,message", [
    ("n_demos=ten", "config key n_demos: 'ten' is not a valid int"),
    ("collect_epsilon=half", "config key collect_epsilon: 'half' is not a valid float"),
    ("collect_epsilon", "cfg.txt:2: expected key=value, got 'collect_epsilon'"),
    ("dvg_stepz=3", "unknown config key: dvg_stepz"),
    ("folds=1,x", "config key folds: 'x' is not a valid int"),
    ("folds=1, 2.5", "config key folds: '2.5' is not a valid int"),
    ("folds=2, 1", "folds=(2, 1))"),
    ("folds=1,3", "config key folds: (1, 3) must list folds 1 and/or 2"),
    ("n_expert_episodes=0", "config key n_expert_episodes: 0 must be >= 1"),
    ("dvg_T=1", "config key dvg_T: 1 must be >= 2"),
    ("sample_T=0", "config key sample_T: 0 must be >= 2"),
    ("n_demos=0", "config key n_demos: 0 must be >= 1"),
    ("eval_episodes=-1", "config key eval_episodes: -1 must be >= 1"),
    ("dvg_steps=0", "config key dvg_steps: 0 must be >= 1"),
    ("dvg_batch=0", "config key dvg_batch: 0 must be >= 1"),
    ("idm_steps=0", "config key idm_steps: 0 must be >= 1"),
    ("policy_steps=0", "config key policy_steps: 0 must be >= 1"),
    ("rt1_steps=0", "config key rt1_steps: 0 must be >= 1"),
], ids=["int", "float", "no-equals", "unknown-key", "tuple-item", "tuple-item-float",
        "tuple-accepted", "folds", "n_expert_episodes", "dvg_T", "sample_T",
        "n_demos", "eval_episodes", "dvg_steps", "dvg_batch", "idm_steps", "policy_steps",
        "rt1_steps"])
def test_crossval_config_errors_name_the_key(tmp_path, monkeypatch, line, message):
    def run_crossval(config, **kwargs):  # a config that parses must not start a run here
        raise SystemExit(f"config accepted: {config}")

    monkeypatch.setattr(pipeline, "run_crossval", run_crossval)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"# tiny\n{line}\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["crossval", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert message in str(exc.value)


def test_readme_lists_every_config_key():
    """The README lists exactly the CrossvalConfig fields, in their order."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("The crossval config file", 1)[1].split("`pipeline.CrossvalConfig`:", 1)[1]
    listed = listed.split(".", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == list(pipeline.CrossvalConfig.__dataclass_fields__)


class _Received(Exception):
    """Raised by a stubbed stage function: args holds the (args, kwargs) the command passed it."""


def _receive(*args, **kwargs):
    raise _Received(args, kwargs)


_FOLD_DATA = ["--fold", "1", "--data", "episodes", "--out", "out"]


@pytest.mark.parametrize("argv,stage,budget,field", [
    (["collect", "--task", "reach", "--out", "out"], (data, "collect"),
     lambda a, k: k["n_episodes"], "n_expert_episodes"),
    (["collect", "--task", "reach", "--out", "out"], (data, "collect"),
     lambda a, k: k["epsilon"], "collect_epsilon"),
    (["train-dvg", *_FOLD_DATA], (pipeline, "train_dvg_for_fold"), lambda a, k: a[1].dvg_steps, "dvg_steps"),
    (["train-idm", *_FOLD_DATA], (idm, "train_idm"), lambda a, k: a[1].steps, "idm_steps"),
    (["train-policy", "--arch", "lcbc", *_FOLD_DATA], (policies, "train_policy"),
     lambda a, k: a[2].steps, "policy_steps"),
    (["train-policy", "--arch", "rt1", *_FOLD_DATA], (policies, "train_policy"),
     lambda a, k: a[2].steps, "rt1_steps"),
    (["sample", "--ckpt", "dvg.ckpt", "--task", "reach", "--out", "out"], (diffusion, "build_schedule"),
     lambda a, k: a[0], "sample_T"),
    (["eval", "--ckpt", "lcbc.ckpt", "--task", "reach"], (policies, "rollout_eval"),
     lambda a, k: k["episodes"], "eval_episodes"),
], ids=["collect-episodes", "collect-epsilon", "train-dvg", "train-idm", "train-policy-lcbc",
        "train-policy-rt1", "sample", "eval"])
def test_stage_defaults_are_the_crossval_budgets(monkeypatch, argv, stage, budget, field):
    """Each stage command's default budget is the one run_crossval gives that stage."""
    monkeypatch.setattr(data, "load_dataset", lambda root, task_ids: ["trajectory"])
    monkeypatch.setattr(idm, "pack_video_windows", lambda trajs: trajs)
    monkeypatch.setattr(policies, "episodes_from_trajectories", lambda trajs: trajs)
    monkeypatch.setattr(storage, "load_model", lambda path: (None, {}))
    monkeypatch.setattr(*stage, _receive)
    with pytest.raises(_Received) as got:
        cli.main(argv)
    assert budget(*got.value.args) == getattr(pipeline.CrossvalConfig(), field)
