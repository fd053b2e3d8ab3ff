"""Scaled-down run of the two-fold cross-validation experiment.

The real experiment (`minimanip crossval` with the `CrossvalConfig`
defaults) uses bigger budgets; this demo runs one fold with small
step counts so the whole thing finishes in well under an hour and prints
the table-style summary plus the demonstration quality report.
"""
from minimanip import pipeline


def main():
    cfg = pipeline.CrossvalConfig(
        seed=0,
        folds=(1,),
        n_expert_episodes=6,
        n_demos=4,
        dvg_steps=250,
        idm_steps=400,
        policy_steps=800,
        rt1_steps=500,
        eval_episodes=10,
        sample_T=24,
    )
    reports, quality = pipeline.run_crossval(cfg, out_dir="crossval_demo")
    print()
    print(pipeline.summarize(reports))
    print()
    prox = quality["proxies"]
    for setting in ("few_shot", "zero_shot"):
        if setting in prox:
            row = prox[setting]
            print(f"{setting:10s} physical {row['physical']:.0%}  "
                  f"accomplishment {row['accomplishment']:.0%}  "
                  f"consistency {row['consistency']:.0%}  (n={row['n']})")
    print("\nartifacts in crossval_demo/: rates.csv, summary.txt, report.json")


if __name__ == "__main__":
    main()
