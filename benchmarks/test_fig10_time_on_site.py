"""Figure 10: time on site — CCDF of session durations per scheme.

"Users randomly assigned to Fugu chose to remain on the Puffer video player
about 10%–20% longer, on average, than those assigned to other schemes...
This average difference was driven solely by the upper 5% tail (sessions
lasting more than 2.5 hours)."

Two parts:

1. the RCT's duration CCDF (the figure itself — wide error bars at bench
   scale, reported with bootstrap CIs like the paper);
2. a controlled common-random-numbers experiment isolating the mechanism:
   identical viewers with a QoE-sensitive tail watch each scheme; the
   QoE-sensitive continuation produces longer sessions under better QoE.
"""

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm, RobustMpcHm
from repro.abr.pensieve.policy import Pensieve
from repro.analysis.bootstrap import bootstrap_mean_ci
from repro.analysis.stats import ccdf
from repro.core.fugu import Fugu
from repro.experiment.watch import ViewerModel
from repro.media.encoder import VbrEncoder
from repro.media.source import DEFAULT_CHANNELS, VideoSource
from repro.net.path import PathSampler
from repro.streaming.simulator import simulate_stream

TAIL_VIEWER = ViewerModel(
    tail_threshold_s=300.0,
    tail_block_s=150.0,
    tail_continue_base=0.80,
    qoe_stall_sensitivity=12.0,
    qoe_ssim_sensitivity=0.05,
    ssim_reference_db=16.5,
    max_session_s=3600.0,
)

N_VIEWERS = 120


@pytest.fixture(scope="module")
def controlled_durations(fugu_predictor, pensieve_model):
    schemes = {
        "bba": BBA(),
        "mpc_hm": MpcHm(),
        "robust_mpc_hm": RobustMpcHm(),
        "pensieve": Pensieve(pensieve_model),
        "fugu": Fugu(fugu_predictor),
    }
    durations = {name: [] for name in schemes}
    for viewer_i in range(N_VIEWERS):
        base_rng = np.random.default_rng(9000 + viewer_i)
        watch = float(np.exp(base_rng.normal(np.log(250.0), 0.5)))
        for name, abr in schemes.items():
            path = PathSampler(seed=9000 + viewer_i).next_path()
            media_rng = np.random.default_rng(viewer_i)
            source = VideoSource(DEFAULT_CHANNELS[viewer_i % 6], rng=media_rng)
            encoder = VbrEncoder(rng=media_rng)
            hook = TAIL_VIEWER.make_extension_hook(
                np.random.default_rng(7000 + viewer_i)
            )
            result = simulate_stream(
                encoder.stream(source),
                abr,
                path.connect(seed=viewer_i),
                watch_time_s=watch,
                extension_hook=hook,
            )
            durations[name].append(result.total_time)
    return durations


def test_fig10_time_on_site(benchmark, primary_trial, controlled_durations):
    def build():
        return {
            name: ccdf(primary_trial.session_durations_for(name))
            for name in primary_trial.scheme_names
        }

    ccdfs = benchmark(build)

    print("\nFigure 10 — session durations (RCT, bootstrap 95% CI on mean)")
    for name in primary_trial.scheme_names:
        durations = primary_trial.session_durations_for(name)
        ci = bootstrap_mean_ci(durations, n_resamples=400, seed=3)
        print(
            f"  {name:<15} mean {ci.point/60:6.2f} min "
            f"({ci.low/60:.2f}–{ci.high/60:.2f}), n={len(durations)}"
        )

    # CCDFs are valid survival curves spanning a heavy-tailed range.
    for name, (x, p) in ccdfs.items():
        assert np.all(np.diff(x) >= 0)
        assert np.all((p > 0) & (p <= 1))
        assert x[-1] > 10 * np.median(x)  # heavy tail present

    print("\nControlled common-viewer experiment (QoE-sensitive tail)")
    means = {}
    for name, durations in controlled_durations.items():
        means[name] = float(np.mean(durations))
        print(
            f"  {name:<15} mean {means[name]/60:6.2f} min  "
            f"median {np.median(durations)/60:6.2f} min"
        )

    # The mechanism: Fugu's viewers stay longest on average...
    others = {k: v for k, v in means.items() if k != "fugu"}
    assert means["fugu"] >= max(others.values()) * 0.97, means
    assert means["fugu"] > np.mean(list(others.values())), means

    # ...and the difference is a tail phenomenon: medians (the body of the
    # distribution) are nearly identical across schemes.
    medians = {
        k: float(np.median(v)) for k, v in controlled_durations.items()
    }
    spread = max(medians.values()) / min(medians.values())
    assert spread < 1.15, medians
