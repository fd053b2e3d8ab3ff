"""Action labeling and behavior cloning, end to end on one task.

Trains the inverse dynamics labeler on expert windows, labels a held-out
video, replays the labels in the simulator, then behavior-clones a
single-frame policy and evaluates it closed loop.
"""
import numpy as np

from minimanip import data, pipeline, policies
from minimanip import inverse_dynamics as idm


def main():
    trajs = [data.run_episode("window-close", s, epsilon=0.1) for s in range(12)]
    packed = idm.pack_video_windows(trajs)
    print(f"{len(packed[0])} training videos of {packed[0].shape[1]} frames")
    model, log = idm.train_idm(packed, idm.IdmConfig(steps=500, batch=16, seed=0))
    print(f"labeler loss {log[0]:.2f} -> {np.mean(log[-20:]):.3f}")

    held = data.run_episode("window-close", 999, epsilon=0.0)
    video = data.subsample_frames(held)
    labels = idm.label_video(model, video)
    truth = data.subsample_trajectory(held).actions
    bins_err = np.abs(data.discretize(labels) - data.discretize(truth))
    print(f"label +/-1-bin accuracy vs bridged truth: {(bins_err <= 1).mean():.2f}")
    ok = pipeline.replay_actions("window-close", held.layout, labels)
    print("replaying the labels solves the held-out layout:", ok)

    eps = policies.episodes_from_trajectories(trajs)
    policy, plog = policies.train_policy("lcbc", eps, policies.BCConfig(steps=1200, seed=0))
    rate = policies.rollout_eval(policy, ["window-close"], episodes=10, seed=4)["window-close"]
    print(f"behavior-cloned policy accomplishment rate: {rate:.2f}")


if __name__ == "__main__":
    main()
