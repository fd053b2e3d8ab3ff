"""Train the pose+text conditioned video diffusion model on one task and
sample from it.

Uses a small step budget so it finishes in a few minutes on a laptop; the
full pipeline uses the same code with more steps (see 05_crossval.py).
"""
import numpy as np

from minimanip import data, diffusion, pipeline, prompts


def main():
    trajs = data.collect("drawer-open", n_episodes=4, epsilon=0.0, seed=0)
    cfg = pipeline.CrossvalConfig(dvg_steps=300, dvg_T=100)
    print(f"training the denoiser for {cfg.dvg_steps} steps ...")
    model, log = pipeline.train_dvg_for_fold(trajs, cfg)
    print(f"loss {log[0]:.3f} -> {np.mean(log[-20:]):.3f}")

    sched = diffusion.build_schedule(40)
    lay = trajs[0].layout
    poses = prompts.plan_pose("drawer-open", lay)
    pv = prompts.render_pose_video(poses)
    text = prompts.task_embedding("drawer-open")
    video = diffusion.sample_video(model, text[None], pv[None], sched,
                                   np.random.default_rng(7))[0]
    print("sampled video:", video.shape, video.dtype)
    ref = data.subsample_frames(trajs[0])
    print(f"PSNR vs the matching expert video: {diffusion.psnr(video, ref):.1f} dB "
          "(a 300-step model is still blurry)")


if __name__ == "__main__":
    main()
