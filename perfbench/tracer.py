"""Spans and counters recorded from outside the minimanip package.

Each public function or method a benchmark step calls is replaced, at the
place its callers look it up, by a wrapper that times the call as a span.
Module functions are replaced in the module's namespace (callers inside the
package look them up there at call time); classes that other modules import
by name (``FrameEncoder``, ``VideoDenoiser``, the policies) get their methods
replaced on the class, so every importer sees the wrapper.

A span's self time is its duration minus the time of the spans it encloses.
Spans with ``sample=True`` also keep every duration, for medians and tails.
Stage spans read the peak of ``tracemalloc``'s traced memory while they run.
Backward closures recorded by ``nn._make`` are wrapped too, so the tape's
backward work is split per op and, for ``conv2d``, per shape.

Nothing here is imported by the package: a process that never calls
``Tracer.install`` runs the package untouched.
"""
from __future__ import annotations

import functools
import os
import tracemalloc
from time import perf_counter


class SpanStat:
    __slots__ = ("calls", "total", "self", "samples", "peak")

    def __init__(self, sample):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.samples = [] if sample else None
        self.peak = 0


def percentile(sorted_vals, q):
    """Linear-interpolated percentile q in [0, 100] of a sorted list."""
    if not sorted_vals:
        return 0.0
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_point(sorted_vals):
    """(percent, value) of the highest percentile with >= 10 samples above it.

    With n samples that is the (n - 10)/n quantile, the 11th largest sample.
    Fewer than 11 samples leave no such percentile; the median stands in.
    """
    n = len(sorted_vals)
    if n < 11:
        return 50.0, percentile(sorted_vals, 50.0)
    return 100.0 * (n - 10) / n, sorted_vals[n - 11]


def tree_bytes(root):
    """Total size of the files under a directory."""
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)


def conv_shape_key(x, w, stride):
    """'<H>x<W>x<C>-<O>s<stride>' for an NHWC input and (k, k, C, O) kernel."""
    _, h, wd, c = x.shape
    return f"{h}x{wd}x{c}-{w.shape[3]}s{stride}"


class Tracer:
    """In-memory span table plus named counters."""

    def __init__(self):
        self._stack = []           # open spans: [name, child_seconds, mem_peak]
        self.reset()

    def reset(self):
        """Forget every recorded span and count; wrappers stay installed."""
        self.stats = {}
        self.counts = {}
        self.step_samples = {}     # hook-timed training steps, seconds
        self.top_level_s = 0.0     # sum of spans opened with no span open

    # -- recording -------------------------------------------------------
    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def call(self, name, fn, args, kwargs, sample=False, stage=False):
        # A stage reads tracemalloc's peak since its entry; a nested stage
        # resets that peak, so it hands what it saw up through frame[2].
        stack = self._stack
        frame = [name, 0.0, 0]
        stage = stage and tracemalloc.is_tracing()
        if stage:
            _, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][2] = max(stack[-1][2], peak)
            tracemalloc.reset_peak()
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = SpanStat(sample)
            st.calls += 1
            st.total += dt
            st.self += dt - frame[1]
            if st.samples is not None:
                st.samples.append(dt)
            if stage:
                frame[2] = max(frame[2], tracemalloc.get_traced_memory()[1])
                st.peak = max(st.peak, frame[2])
                tracemalloc.reset_peak()
            if stack:
                stack[-1][1] += dt
                stack[-1][2] = max(stack[-1][2], frame[2])
            else:
                self.top_level_s += dt

    def step_hook(self, name):
        """A training ``hook(it, loss)`` that records the time between steps."""
        samples = self.step_samples.setdefault(name, [])
        last = [perf_counter()]

        def hook(it, val):
            now = perf_counter()
            if it > 0:  # step 0 also pays for model and optimiser set-up
                samples.append(now - last[0])
            last[0] = now

        return hook

    # -- installing ------------------------------------------------------
    def wrap(self, owner, attr, name=None, sample=False, stage=False, post=None,
             name_fn=None, hook_name=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        name_fn(args, kwargs) picks the span name per call (None: no span);
        post(args, kwargs, result) updates counters after the call;
        hook_name(args, kwargs) names the training steps whose times a
        ``hook`` keyword, added when the caller passed none, records.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name_fn(args, kwargs) if name_fn is not None else name
            if hook_name is not None and kwargs.get("hook") is None:
                kwargs["hook"] = tracer.step_hook(hook_name(args, kwargs))
            if span is None:
                result = fn(*args, **kwargs)
            else:
                result = tracer.call(span, fn, args, kwargs, sample=sample, stage=stage)
            if post is not None:
                post(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def install(self, mm):
        """Wrap the package's public entry points; mm maps module names to modules."""
        env, data, prompts, diffusion = mm["env"], mm["data"], mm["prompts"], mm["diffusion"]
        idm, policies, pipeline = mm["inverse_dynamics"], mm["policies"], mm["pipeline"]
        nn, storage = mm["nn"], mm["storage"]
        count, inside = self.count, self.inside

        # env
        self.wrap(env, "render", "env.render", sample=True)

        def step_post(args, kwargs, result):
            count("env.steps")
            if inside("policies.rollout_many"):
                count("policies.env_steps")

        self.wrap(env, "step_state", "env.step_state", sample=True, post=step_post)

        # data
        def episode_post(args, kwargs, traj):
            count("data.episodes_attempted")
            count("data.episodes_succeeded", int(bool(traj.success)))

        self.wrap(data, "run_episode", "data.run_episode", post=episode_post)
        self.wrap(data, "collect", "data.collect", stage=True)
        self.wrap(data, "edge_extract_video", "data.edge_extract_video")
        self.wrap(data, "save_dataset", "data.save_dataset", stage=True,
                  post=lambda a, k, r: count("data.bytes_written", tree_bytes(a[1])))
        self.wrap(data, "load_dataset", "data.load_dataset", stage=True,
                  post=lambda a, k, r: count("data.bytes_read", tree_bytes(a[0])))

        # prompts
        for attr in ("plan_pose", "render_pose_video", "embed_prompt"):
            self.wrap(prompts, attr, f"prompts.{attr}")

        # diffusion
        def denoise_name(args, kwargs):
            b = args[1].shape[0]
            if inside("diffusion.sample_video"):
                count("diffusion.denoise_steps")
            return f"diffusion.denoise.b{b}"

        self.wrap(diffusion.VideoDenoiser, "__call__", name_fn=denoise_name, sample=True)
        self.wrap(diffusion.VideoDenoiser, "pose_features", "diffusion.pose_features")
        self.wrap(diffusion, "sample_video", "diffusion.sample_video", stage=True)
        self.wrap(diffusion, "prepare_dvg_dataset", "diffusion.prepare_dvg_dataset")
        self.wrap(diffusion, "train_dvg", "diffusion.train_dvg", stage=True,
                  hook_name=lambda a, k: "diffusion.train_step_ms")

        # inverse_dynamics
        def encode_post(args, kwargs, result):
            n = args[1].shape[0]
            count("inverse_dynamics.frames_encoded", n)
            if inside("inverse_dynamics.label_video"):
                count("inverse_dynamics.frames_encoded_in_label", n)
            if inside("policies.act.rt1"):
                count("policies.rt1.frames_encoded_in_act", n)

        self.wrap(idm.FrameEncoder, "__call__", "inverse_dynamics.encode", post=encode_post)
        self.wrap(idm, "label_video", "inverse_dynamics.label_video", sample=True)
        self.wrap(idm, "pack_video_windows", "inverse_dynamics.pack_video_windows", stage=True)
        self.wrap(idm, "train_idm", "inverse_dynamics.train_idm", stage=True,
                  hook_name=lambda a, k: "inverse_dynamics.train_step_ms")

        # policies: a forward pass inside a rollout is an "act" span
        for cls in (policies.SingleFramePolicy, policies.HistoryPolicy):
            def act_name(args, kwargs, arch=cls.arch):
                if not inside("policies.rollout_many"):
                    return None
                count(f"policies.{arch}.act_rows", args[1].shape[0])
                return f"policies.act.{arch}"

            self.wrap(cls, "__call__", name_fn=act_name, sample=True)
        self.wrap(policies, "rollout_many", "policies.rollout_many", stage=True)
        self.wrap(policies, "episodes_from_trajectories", "policies.episodes_from_trajectories",
                  stage=True)
        self.wrap(policies, "train_policy", "policies.train_policy", stage=True,
                  hook_name=lambda a, k: f"policies.{a[0]}.train_step_ms")

        # pipeline
        def filter_post(args, kwargs, result):
            count("pipeline.demos_generated", result[1]["total"])
            count("pipeline.demos_kept", result[1]["kept"])

        self.wrap(pipeline, "generate_demonstrations", "pipeline.generate_demonstrations",
                  stage=True)
        self.wrap(pipeline, "quality_proxies", "pipeline.quality_proxies", sample=True)
        self.wrap(pipeline, "replay_actions", "pipeline.replay_actions")
        self.wrap(pipeline.VariantClassifier, "predict_video", "pipeline.predict_video")
        self.wrap(pipeline, "filter_demonstrations", "pipeline.filter_demonstrations",
                  stage=True, post=filter_post)
        self.wrap(pipeline, "demos_to_episodes", "pipeline.demos_to_episodes", stage=True)
        self.wrap(pipeline, "train_dvg_for_fold", "pipeline.train_dvg_for_fold", stage=True)
        self.wrap(pipeline, "train_variant_classifier", "pipeline.train_variant_classifier",
                  stage=True)

        # storage
        self.wrap(storage, "save_model", "storage.save_model", stage=True,
                  post=lambda a, k, r: count("storage.bytes_written", os.path.getsize(a[0])))
        self.wrap(storage, "load_model", "storage.load_model", stage=True,
                  post=lambda a, k, r: count("storage.bytes_read", os.path.getsize(a[0])))

        # nn: forward ops, the tape and its backward closures, the optimiser
        self.wrap(nn, "conv2d", name_fn=lambda a, k: "nn.conv2d.fwd." + conv_shape_key(
            a[0], a[1], k.get("stride", a[3] if len(a) > 3 else 1)))
        self.wrap(nn, "conv1x1", "nn.conv1x1.fwd")
        for op in ("matmul", "layernorm", "softmax"):
            self.wrap(nn, op, f"nn.{op}.fwd")
        self.wrap(nn.Tensor, "backward", "nn.backward")
        self.wrap(nn.Adam, "step", "nn.adam")
        self._wrap_tape(nn)

    def _wrap_tape(self, nn):
        make = nn._make
        tracer = self

        def bwd_name(backward):
            op = backward.__qualname__.split(".")[0]
            if op != "conv2d":
                return f"nn.{op}.bwd"
            cells = dict(zip(backward.__code__.co_freevars,
                             (c.cell_contents for c in backward.__closure__)))
            return "nn.conv2d.bwd." + conv_shape_key(cells["x"], cells["w"], cells["stride"])

        @functools.wraps(make)
        def traced_make(data, parents, backward, requires_grad=None):
            out = make(data, parents, backward, requires_grad)
            if out._backward is not None:
                tracer.count("nn.tape_ops")
                tracer.count("nn.tape_bytes", out.data.nbytes)
                name = bwd_name(backward)
                out._backward = lambda g: tracer.call(name, backward, (g,), {})
            return out

        nn._make = traced_make

    # -- reporting -------------------------------------------------------
    def span_table(self):
        """Every span: calls, total/self seconds, medians and tails if sampled."""
        rows = {}
        for name, st in sorted(self.stats.items()):
            row = {"calls": st.calls, "total_s": st.total, "self_s": st.self}
            if st.samples:
                vals = sorted(st.samples)
                pct, tail = tail_point(vals)
                row.update(p50_ms=1e3 * percentile(vals, 50.0), tail_ms=1e3 * tail,
                           tail_pct=pct, n=len(vals))
            if st.peak:
                row["peak_traced_mb"] = st.peak / 2**20
            rows[name] = row
        for name, vals in sorted(self.step_samples.items()):
            rows[name] = {"p50_ms": 1e3 * percentile(sorted(vals), 50.0), "n": len(vals)}
        return rows


def install_counters(mm):
    """Bare call counters for untraced runs: no clock reads, no spans.

    Returns a dict that fills with env steps, denoiser calls and frames
    encoded, so that an untraced run can print its work beside its time.
    """
    counts = {"env_steps": 0, "denoise_calls": 0, "frames_encoded": 0}

    def counting(owner, attr, key, amount):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += amount(args)
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    counting(mm["env"], "step_state", "env_steps", lambda a: 1)
    counting(mm["diffusion"].VideoDenoiser, "__call__", "denoise_calls", lambda a: 1)
    counting(mm["inverse_dynamics"].FrameEncoder, "__call__", "frames_encoded",
             lambda a: a[1].shape[0])
    return counts
