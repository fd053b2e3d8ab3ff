import json

import numpy as np
import pytest

from minimanip import cli, data, diffusion, env, nn, pipeline, policies, prompts, storage
from minimanip import inverse_dynamics as idm


class _Classifier:
    """Stands in for the variant classifier: every video looks like `task_id`."""

    def __init__(self, task_id):
        self.task_id = task_id

    def predict_video(self, video):
        return self.task_id


@pytest.fixture(scope="module")
def expert_demo():
    traj = data.run_episode("drawer-open", seed=1, epsilon=0.0)
    sub = data.subsample_trajectory(traj)
    return pipeline.GeneratedDemo(
        task_id=traj.task_id, seed=1, layout=traj.layout,
        poses=None, video=sub.frames, actions=sub.actions)


def test_replay_ground_truth_succeeds(expert_demo):
    assert pipeline.replay_actions(expert_demo.task_id, expert_demo.layout, expert_demo.actions)


def test_quality_proxies_flags(expert_demo):
    flags = pipeline.quality_proxies(expert_demo, classifier=_Classifier("reach"))
    assert flags["replay_success"] is True
    assert flags["plausible"] is True
    assert flags["consistent"] is False  # the classifier sees another task
    assert pipeline.quality_proxies(expert_demo, _Classifier("drawer-open"))["consistent"] is True


def test_proxies_unlabeled():
    demo = pipeline.GeneratedDemo("reach", 0, env.sample_layout("reach", 0), None,
                                  np.zeros((36, 64, 64, 3), np.uint8), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="unlabeled demo"):
        pipeline.quality_proxies(demo, classifier=_Classifier("reach"))


def test_zero_actions_do_not_replay(expert_demo):
    assert not pipeline.replay_actions(expert_demo.task_id, expert_demo.layout,
                                       np.zeros_like(expert_demo.actions))


def test_filter_keeps_only_replayable(expert_demo):
    good = expert_demo
    good.flags = {"replay_success": True, "plausible": True, "consistent": True}
    bad = pipeline.GeneratedDemo("reach", 0, env.sample_layout("reach", 0), None,
                                 np.zeros((36, 64, 64, 3), np.uint8), np.zeros((35, 3)),
                                 flags={"replay_success": False, "plausible": True, "consistent": False})
    kept, stats = pipeline.filter_demonstrations([good, bad])
    assert kept == [good]
    assert stats["total"] == 2 and stats["kept"] == 1
    assert stats["discard_fraction"] == pytest.approx(0.5)
    assert all(d.flags["replay_success"] for d in kept)


def test_filter_identity_when_all_good(expert_demo):
    expert_demo.flags = {"replay_success": True, "plausible": True, "consistent": True}
    kept, stats = pipeline.filter_demonstrations([expert_demo])
    assert kept == [expert_demo]
    assert stats["discard_fraction"] == 0.0


def test_quality_report_arithmetic():
    def demo_with(flags):
        return pipeline.GeneratedDemo("reach", 0, None, None,
                                      np.zeros((1, 64, 64, 3), np.uint8),
                                      np.zeros((35, 3)), flags=flags)
    all_true = {"replay_success": True, "plausible": True, "consistent": True}
    all_false = {"replay_success": False, "plausible": False, "consistent": False}
    sets = {"few_shot": [demo_with(all_true)] * 2,
            "zero_shot": [demo_with(all_true), demo_with(all_false)]}
    rep = pipeline.quality_report(sets)
    assert rep["proxies"]["few_shot"]["accomplishment"] == 1.0
    assert rep["proxies"]["zero_shot"]["accomplishment"] == 0.5
    # equal set sizes: overall = mean of the two rows
    assert rep["proxies"]["average"]["accomplishment"] == pytest.approx(0.75)
    assert rep["human_reference"]["few_shot"]["accomplishment"] == 0.925
    for col in ("physical", "accomplishment", "consistency"):
        assert rep["proxies"]["few_shot"][col] >= rep["proxies"]["zero_shot"][col]


def test_report_structure_and_totals():
    rates = {tid: (1.0 if env.get_task(tid).fold == 1 else 0.0) for tid in env.TASK_IDS}
    rep = pipeline._report(1, "expert", "lcbc", {t: np.float64(r) for t, r in rates.items()})
    assert rep.totals["few_shot"] == "8/8"
    assert rep.totals["zero_shot"] == "0/8"
    assert len(rep.passes["few_shot"]) == 8
    assert all(type(v) is bool for fam in rep.passes.values() for v in fam.values())
    csv = pipeline.reports_to_csv([rep])
    assert csv.count("\n") == 17  # header + 16 task rows


def test_generated_demo_episode_conversion(expert_demo):
    eps = pipeline.demos_to_episodes([expert_demo])
    assert len(eps) == 1
    ep = eps[0]
    assert ep.history_stride == 1
    assert np.allclose(ep.actions, np.asarray(expert_demo.actions) / 3.0)
    assert len(ep.frames) == len(ep.actions) + 1


def test_checkpoint_round_trip(tmp_path):
    from minimanip import policies
    m = policies.make_policy("lcbc", np.random.default_rng(0), d=32, blocks=1)
    path = tmp_path / "p.ckpt"
    storage.save_model(path, m, "lcbc", {"d": 32, "blocks": 1}, {"seed": 0})
    m2, meta = storage.load_model(path)
    assert meta["kind"] == "lcbc"
    for k, v in m.state().items():
        assert np.allclose(v, m2.state()[k], atol=1e-7)


def test_checkpoint_magic(tmp_path):
    from minimanip import policies
    m = policies.make_policy("lcbc", np.random.default_rng(0), d=32, blocks=1)
    path = tmp_path / "p.ckpt"
    storage.save_model(path, m, "lcbc", {"d": 32, "blocks": 1})
    assert path.read_bytes()[:8] == b"MMARR1\x00\x00"
    with pytest.raises(ValueError, match="bad magic in .*test_pipeline.py"):
        storage.load_model(__file__)


def test_generate_demonstrations_smoke():
    from minimanip import diffusion
    from minimanip import inverse_dynamics as idm
    dvg_model = diffusion.VideoDenoiser(np.random.default_rng(0), channels=(4, 6, 8))
    idm_model = idm.ActionDecoder(np.random.default_rng(1), d=32, temporal_blocks=1)
    sched = diffusion.build_schedule(3, "cosine")
    demos = pipeline.generate_demonstrations("reach", 2, dvg_model, idm_model, sched, seed=0, batch=2,
                                             classifier=_Classifier("reach"))
    assert len(demos) == 2
    assert all(set(d.flags) == {"replay_success", "plausible", "consistent"} for d in demos)
    assert demos[0].video.shape == (36, 64, 64, 3)
    assert demos[0].actions.shape == (35, 3)
    assert demos[0].seed != demos[1].seed
    # determinism
    demos2 = pipeline.generate_demonstrations("reach", 2, dvg_model, idm_model, sched, seed=0, batch=2,
                                              classifier=_Classifier("reach"))
    assert np.array_equal(demos[0].video, demos2[0].video)
    assert np.array_equal(demos[0].actions, demos2[0].actions)


def test_config_hash_stable():
    c1, c2 = pipeline.CrossvalConfig(), pipeline.CrossvalConfig()
    assert c1.hash() == c2.hash()
    c3 = pipeline.CrossvalConfig(seed=1)
    assert c3.hash() != c1.hash()



def _nan_loss(*args, **kwargs):
    return nn.Tensor(np.array(np.nan, dtype=np.float32))


def _train_dvg_one_step():
    video = np.zeros((36, 64, 64, 3), dtype=np.uint8)
    pose = np.zeros((36, 64, 64, 1), dtype=np.uint8)
    diffusion.train_dvg([(video, "button-press", pose)],
                        diffusion.DvgConfig(steps=1, batch=1, T=20, channels=(2, 3, 4)))


def _train_idm_one_step():
    packed = (np.zeros((1, 36, 64, 64, 3), dtype=np.uint8), np.zeros((1, 35, 3), dtype=np.int64))
    idm.train_idm(packed, idm.IdmConfig(steps=1, batch=1, d=8, window=3))


def _train_policy_one_step():
    ep = policies.BCEpisode("reach", np.zeros((2, 64, 64, 3), dtype=np.uint8),
                            np.zeros((1, 3), dtype=np.float32))
    policies.train_policy("lcbc", [ep], policies.BCConfig(steps=1, batch=1, d=8, blocks=1))


def _train_classifier_one_step():
    pipeline.train_variant_classifier({"reach": [np.zeros((2, 64, 64, 3), dtype=np.uint8)]}, steps=1)


@pytest.mark.parametrize("loss,train", [
    ("mse", _train_dvg_one_step),
    ("cross_entropy", _train_idm_one_step),
    ("cross_entropy", _train_policy_one_step),
    ("cross_entropy", _train_classifier_one_step),
], ids=["train_dvg", "train_idm", "train_policy", "train_variant_classifier"])
def test_training_fails_fast_on_nan_loss(monkeypatch, loss, train):
    monkeypatch.setattr(nn, loss, _nan_loss)
    with pytest.raises(RuntimeError, match="numerical divergence at step 0"):
        train()


def _denoise(model):
    v = np.zeros((1, 2, 64, 64, 3), dtype=np.float32)
    pose = np.zeros((1, 2, 64, 64, 1), dtype=np.float32)
    text = np.zeros((1, prompts.EMBED_DIM), dtype=np.float32)
    return model(v, np.array([3]), text, model.pose_features(pose), 10)


_PROMPT = np.zeros((1, prompts.EMBED_DIM), dtype=np.float32)


def _frames(*lead):
    return np.zeros(lead + (64, 64, 3), dtype=np.float32)


@pytest.mark.parametrize("build,forward", [
    (lambda rng: diffusion.VideoDenoiser(rng, channels=(2, 3, 4), cond_dim=8, frames=2), _denoise),
    (lambda rng: idm.ActionDecoder(rng, d=8, window=3, temporal_blocks=1),
     lambda m: m(_frames(1, 3))),
    (lambda rng: policies.SingleFramePolicy(rng, d=8, blocks=1), lambda m: m(_frames(1), _PROMPT)),
    (lambda rng: policies.HistoryPolicy(rng, d=8, blocks=1, history=2),
     lambda m: m(_frames(1, 2), _PROMPT)),
    (lambda rng: pipeline.VariantClassifier(rng, d=8), lambda m: m(_frames(1))),
], ids=["VideoDenoiser", "ActionDecoder", "SingleFramePolicy", "HistoryPolicy", "VariantClassifier"])
def test_astype_sets_parameter_and_forward_dtype(monkeypatch, build, forward):
    """float32 inputs run in the parameters' dtype: every op output, not just the last."""
    made = []
    make = nn._make

    def recording_make(data, *args, **kwargs):
        made.append(data.dtype)
        return make(data, *args, **kwargs)

    monkeypatch.setattr(nn, "_make", recording_make)
    model = build(np.random.default_rng(0))
    for dtype in (np.float32, np.float64):  # as built, then converted
        if dtype == np.float64:
            assert model.astype(dtype) is model
        assert {p.dtype for p in model.params().values()} == {np.dtype(dtype)}
        made.clear()
        assert forward(model).dtype == dtype
        assert set(made) == {np.dtype(dtype)}


def _stubbed_crossval(monkeypatch, out_dir, final_loss):
    """One-fold run_crossval with every trainer stubbed and a filter that keeps no demo.

    Each stubbed trainer ends its loss log at `final_loss` (the DVG), +1 (the
    IDM) or +2 (a policy). Returns the reports, the log lines and the
    (arch, episode count) of each policy trained.
    """
    real_collect = data.collect
    monkeypatch.setattr(data, "collect", lambda tid, n_episodes, epsilon, seed:
                        real_collect(tid, 1, epsilon=epsilon, seed=seed))
    monkeypatch.setattr(pipeline, "train_variant_classifier", lambda videos, seed: None)
    monkeypatch.setattr(pipeline, "train_dvg_for_fold",
                        lambda trajs, cfg, seed_offset: (None, [9.0, final_loss]))
    monkeypatch.setattr(idm, "train_idm", lambda packed, config: (None, [9.0, final_loss + 1]))
    trained = []

    def train_policy(arch, episodes, config):
        if not episodes:
            raise ValueError("empty dataset")  # as the real trainer does
        trained.append((arch, len(episodes)))
        return arch, [9.0, final_loss + 2]

    def generate(task, n_demos, *args, **kwargs):
        return [pipeline.GeneratedDemo(task, m, None, None, np.zeros((36, 64, 64, 3), np.uint8),
                                       np.zeros((35, 3)),
                                       flags={"replay_success": False, "plausible": True, "consistent": False})
                for m in range(n_demos)]

    monkeypatch.setattr(policies, "train_policy", train_policy)
    monkeypatch.setattr(policies, "rollout_eval", lambda model, tasks, episodes, seed: dict.fromkeys(tasks, 1.0))
    monkeypatch.setattr(pipeline, "generate_demonstrations", generate)
    lines = []
    cfg = pipeline.CrossvalConfig(n_expert_episodes=1, n_demos=2, folds=(1,))
    reports, _ = pipeline.run_crossval(cfg, out_dir=str(out_dir), log=lines.append)
    return reports, lines, trained


def test_crossval_without_kept_demos_scores_generated_arm_zero(monkeypatch, tmp_path, capsys):
    """A fold whose filter keeps no demo reports rate 0 for the generated arm and still writes its report.

    `minimanip report` renders rates.csv and summary.txt from report.json alone.
    """
    reports, lines, trained = _stubbed_crossval(monkeypatch, tmp_path, 0.5)

    assert trained == [("lcbc", 8), ("rt1", 8)]  # the expert arm only
    generated = [r for r in reports if r.arm == "generated"]
    assert [r.arch for r in generated] == ["lcbc", "rt1"]
    for r in generated:
        assert r.rates == dict.fromkeys(env.TASK_IDS, 0.0)
        assert r.totals == {"few_shot": "0/8", "zero_shot": "0/8"}
    per_task = [line for line in lines if "kept/total per task" in line]
    assert len(per_task) == 1
    assert all(f"{tid} 0/2" in per_task[0] for tid in env.TASK_IDS)
    assert any("no generated demos" in line for line in lines)
    payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert [(r["arm"], r["arch"]) for r in payload["reports"]] == [
        ("expert", "lcbc"), ("expert", "rt1"), ("generated", "lcbc"), ("generated", "rt1")]
    assert payload["final_losses"] == {"1": {"expert lcbc": 2.5, "expert rt1": 2.5, "dvg": 0.5, "idm": 1.5}}
    capsys.readouterr()
    for fmt, view in (("csv", "rates.csv"), ("md", "summary.txt")):
        cli.main(["report", "--in", str(tmp_path), "--format", fmt])
        assert capsys.readouterr().out == (tmp_path / view).read_text(encoding="utf-8")


def test_crossval_report_records_the_trained_models(monkeypatch, tmp_path, capsys):
    """Runs whose models end at other losses write other reports, though every rate is the same;
    `minimanip report` still reads a report.json written without final losses."""
    for name, final_loss in (("a", 0.5), ("b", 0.25)):
        _stubbed_crossval(monkeypatch, tmp_path / name, final_loss)
    a, b = tmp_path / "a", tmp_path / "b"
    for view in ("rates.csv", "summary.txt"):
        assert (a / view).read_bytes() == (b / view).read_bytes()
    assert (a / "report.json").read_bytes() != (b / "report.json").read_bytes()

    payload = json.loads((a / "report.json").read_text(encoding="utf-8"))
    del payload["final_losses"]
    (a / "report.json").write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    cli.main(["report", "--in", str(a), "--format", "csv"])
    assert capsys.readouterr().out == (a / "rates.csv").read_text(encoding="utf-8")
