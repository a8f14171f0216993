"""Run a small blinded randomized controlled trial — the Puffer experiment
in miniature (§3).

Sessions are randomly assigned among five ABR schemes, viewers behave with
the heavy-tailed zap/view/abort mix, exclusions follow the CONSORT flow of
Fig. A1, and the analysis reports Fig. 1-style rows with bootstrap
confidence intervals — which at this scale are wide, illustrating §3.4's
point about statistical margins.

Run:  python examples/randomized_trial.py      (~3–5 minutes)
"""

import time

from repro.analysis.summary import summarize_scheme
from repro.experiment.harness import RandomizedTrial, TrialConfig
from repro.experiment.insitu import (
    InSituTrainingConfig,
    train_fugu_in_situ,
    train_pensieve_in_simulation,
)
from repro.experiment.schemes import primary_experiment_schemes

N_SESSIONS = 300


def main():
    t0 = time.time()
    print("Training the learned schemes…")
    fugu_predictor = train_fugu_in_situ(
        InSituTrainingConfig(
            bootstrap_streams=60, iteration_streams=60, iterations=1,
            epochs=10, seed=3,
        )
    )
    pensieve_model = train_pensieve_in_simulation(
        episodes=400, seed=11, n_candidates=2
    )
    print(f"  done in {time.time() - t0:.0f}s\n")

    specs = primary_experiment_schemes(fugu_predictor, pensieve_model)
    print(f"Randomizing {N_SESSIONS} sessions among {len(specs)} schemes…")
    t0 = time.time()
    trial = RandomizedTrial(
        specs, TrialConfig(n_sessions=N_SESSIONS, seed=7)
    ).run()
    print(f"  done in {time.time() - t0:.0f}s\n")

    flow = trial.consort
    print("CONSORT flow:")
    print(f"  {flow.sessions_randomized} sessions randomized")
    print(f"  {flow.streams_total} streams started")
    print(f"  {flow.streams_considered} considered for the primary analysis")
    print(f"  {flow.considered_watch_years * 365.25:.1f} stream-days of data\n")

    print("Primary analysis (95% CIs — note how wide they are at this scale):")
    print(f"{'Scheme':<15}{'Stall % (CI)':>22}{'SSIM dB (CI)':>22}{'N':>6}")
    for name in trial.scheme_names:
        streams = trial.streams_for(name)
        if not streams:
            continue
        s = summarize_scheme(name, streams, n_resamples=300)
        print(
            f"{name:<15}"
            f"{s.stall_percent:>8.3f} ({s.stall_ratio.low * 100:.2f}–"
            f"{s.stall_ratio.high * 100:.2f})"
            f"{s.mean_ssim_db.point:>10.2f} ({s.mean_ssim_db.low:.2f}–"
            f"{s.mean_ssim_db.high:.2f})"
            f"{s.n_streams:>6}"
        )
    print(
        "\nThe paper needed ~1.7 stream-years per scheme for ±10–17% stall"
        "\nintervals; at example scale the play of chance dominates —"
        "\nexactly the phenomenon §3.4 quantifies."
    )


if __name__ == "__main__":
    main()
