"""Data pipeline walkthrough: collection, files, preprocessing, prompts.

Collects a handful of expert episodes, shows the on-disk episode format,
the video subsampling and action bridging used by the generative models,
and the prompt expansion + embedding similarity analysis.
"""
import os
import tempfile

import numpy as np

from minimanip import data, env, prompts


def main():
    trajs = data.collect("faucet-open", n_episodes=3, epsilon=0.1, seed=0)
    print(f"collected {len(trajs)} successful episodes, lengths "
          f"{[len(t.actions) for t in trajs]}")

    with tempfile.TemporaryDirectory() as tmp:
        data.save_dataset(trajs[:1], tmp)
        (name,) = os.listdir(tmp)
        print(f"\nepisode file: {name} ({os.path.getsize(os.path.join(tmp, name))} bytes)")
        back = data.load_trajectory(os.path.join(tmp, name))
        print("round trip bit-identical:", np.array_equal(back.frames, trajs[0].frames))

    sub = data.subsample_trajectory(trajs[0])
    print(f"\nvideo tensor: {sub.frames.shape} uint8, bridged actions {sub.actions.shape}")
    print("per-step displacement caps:", np.abs(sub.actions[:, :2]).max())

    edge = data.edge_extract_video(trajs[0].frames[:1])[0]
    print("edge-extracted frame range:", edge.min(), "-", edge.max())

    print("\nprompt expansion on three reference descriptions:")
    for text in [
        "Vertical button, reddish-brown wall",
        "Brown ferrule and green handle, red cylinder, rings over columns",
        "Black metal safety door, door close, door lock",
    ]:
        print(" ", prompts.expand_prompt(text))

    descs = [t.description for t in env.REGISTRY.values()]
    m_orig = prompts.similarity_matrix(descs)
    m_exp = prompts.similarity_matrix([prompts.expand_prompt(d) for d in descs])
    fam = {}
    for i, t in enumerate(env.REGISTRY.values()):
        fam.setdefault(t.family, []).append(i)
    intra_o = np.mean([m_orig[i, j] for ids in fam.values() for i in ids for j in ids if i < j])
    intra_x = np.mean([m_exp[i, j] for ids in fam.values() for i in ids for j in ids if i < j])
    print(f"\nmean intra-family cosine: original {intra_o:.3f} -> expanded {intra_x:.3f}")


if __name__ == "__main__":
    main()
