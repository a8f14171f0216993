"""Regenerate the paper's trial-derived figures as JSON + ASCII plots.

Runs a small randomized trial, builds the data behind Figures 1, 4, 8, 9,
10 and A1, writes them to ``figures/figures.json``, and renders the two
headline plots (the Fig. 8 scatter and the Fig. 10 CCDF) as ASCII.

Run:  python examples/make_figures.py      (~3–4 minutes)
"""

import json
from pathlib import Path

from repro.analysis.figures import all_figures
from repro.analysis.plotting import ccdf_plot, scatter_plot
from repro.experiment.harness import RandomizedTrial, TrialConfig
from repro.experiment.insitu import (
    InSituTrainingConfig,
    train_fugu_in_situ,
    train_pensieve_in_simulation,
)
from repro.experiment.schemes import primary_experiment_schemes


def main():
    print("Training learned schemes and running the trial…")
    fugu_predictor = train_fugu_in_situ(
        InSituTrainingConfig(
            bootstrap_streams=60, iteration_streams=60, iterations=1,
            epochs=10, seed=3,
        )
    )
    pensieve = train_pensieve_in_simulation(
        episodes=400, seed=11, n_candidates=2
    )
    specs = primary_experiment_schemes(fugu_predictor, pensieve)
    trial = RandomizedTrial(specs, TrialConfig(n_sessions=400, seed=42)).run()

    figures = all_figures(trial)
    out_dir = Path("figures")
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / "figures.json"
    out_path.write_text(json.dumps(figures, indent=2))
    print(f"wrote {out_path} ({out_path.stat().st_size} bytes)\n")

    print("Figure 8 (all paths) — SSIM vs stall, better toward top-right:")
    points = {
        name: (row["stall_percent"], row["ssim_db"])
        for name, row in figures["fig8"]["all"].items()
    }
    print(scatter_plot(
        points, x_label="time stalled (%)", y_label="SSIM (dB)",
        invert_x=True,
    ))

    print("\nFigure 10 — session duration CCDF (log-log):")
    curves = {
        name: (row["minutes"], row["survival"])
        for name, row in figures["fig10"].items()
    }
    print(ccdf_plot(curves, x_label="minutes on player"))


if __name__ == "__main__":
    main()
