"""Related work (§2 / Fig. 2): CS2P's discrete-state world view vs Puffer's.

CS2P models throughput "as a Markovian process with a small number of
discrete states" and reports gains in a world that matches that model. The
paper's Fig. 2 shows Puffer's throughput has no such states. This bench
quantifies the model mismatch and its control consequence:

* the HMM fits Markov-link telemetry far better (higher held-out
  log-likelihood) than deployment telemetry;
* CS2P-MPC is competitive with HM-based MPC in the Markov world, but gains
  nothing over it in the deployment — where Fugu's TTP, which models
  transmission time directly, does better.
"""

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm
from repro.abr.cs2p import (
    Cs2pMpc,
    DiscreteThroughputHmm,
    throughput_series_from_streams,
)
from repro.core.fugu import Fugu
from repro.experiment.insitu import deploy_and_collect
from repro.experiment.harness import TrialConfig
from repro.media.encoder import VbrEncoder
from repro.media.source import DEFAULT_CHANNELS, VideoSource
from repro.net.link import MarkovLink
from repro.net.path import NetworkPath, PathSampler
from repro.streaming.simulator import simulate_stream


def markov_path_factory(rng):
    """A client population whose throughput genuinely has discrete states."""
    base = float(np.exp(rng.normal(np.log(4e6), 0.6)))
    states = [base * 0.4, base, base * 2.5]
    return NetworkPath(
        link=MarkovLink(
            states_bps=states,
            switch_probability=0.03,
            jitter_sigma=0.05,
            seed=int(rng.integers(2**31)),
        ),
        base_rtt=float(np.clip(rng.normal(0.06, 0.02), 0.02, 0.2)),
    )


def run_world(abr, path_factory, n_streams, seed):
    results = []
    for i in range(n_streams):
        stream_seed = seed + i
        rng = np.random.default_rng(stream_seed)
        path = (
            path_factory(rng)
            if path_factory is not None
            else PathSampler(seed=stream_seed).next_path()
        )
        media_rng = np.random.default_rng(stream_seed)
        source = VideoSource(DEFAULT_CHANNELS[i % 6], rng=media_rng)
        encoder = VbrEncoder(rng=media_rng)
        result = simulate_stream(
            encoder.stream(source), abr, path.connect(seed=stream_seed),
            watch_time_s=240.0,
        )
        result.scheme_name = abr.name
        results.append(result)
    return results


def agg(streams):
    stall = sum(s.stall_time for s in streams) / sum(
        s.watch_time for s in streams
    )
    return {
        "stall_pct": stall * 100.0,
        "ssim_db": float(np.mean([s.mean_ssim_db for s in streams])),
    }


@pytest.fixture(scope="module")
def cs2p_study(fugu_predictor):
    # Telemetry from both worlds, collected with the classical schemes.
    markov_train = run_world(BBA(), markov_path_factory, 60, seed=100)
    markov_train += run_world(MpcHm(), markov_path_factory, 60, seed=300)
    deploy_train = deploy_and_collect(
        [BBA(), MpcHm()], 120, seed=500, watch_time_s=240.0
    )

    hmm_markov = DiscreteThroughputHmm(n_states=3, seed=1)
    hmm_markov.fit(
        throughput_series_from_streams(markov_train), max_iterations=25
    )
    hmm_deploy = DiscreteThroughputHmm(n_states=3, seed=1)
    hmm_deploy.fit(
        throughput_series_from_streams(deploy_train), max_iterations=25
    )

    # Model-structure comparison on held-out sessions. Each session is
    # normalized by its own mean throughput so cross-session heterogeneity
    # (slow vs fast *paths*, which any model captures) is factored out and
    # only within-session state structure remains — the thing Fig. 2 is
    # about. The evidence for discrete states is the likelihood *gain* of
    # a 3-state HMM over a single-state (plain log-normal) model.
    def normalized(series):
        return [list(np.asarray(s) / np.mean(s) * 1e6) for s in series]

    def state_structure_gain(train_series, test_series, seed=1):
        multi = DiscreteThroughputHmm(n_states=3, seed=seed)
        multi.fit(normalized(train_series), max_iterations=25)
        single = DiscreteThroughputHmm(n_states=1, seed=seed)
        single.fit(normalized(train_series), max_iterations=25)
        gain = multi.log_likelihood(
            normalized(test_series)
        ) - single.log_likelihood(normalized(test_series))
        separation = float(
            np.min(np.abs(np.diff(multi.means))) / np.mean(multi.sigmas)
        )
        return gain, separation

    markov_test = throughput_series_from_streams(
        run_world(BBA(), markov_path_factory, 30, seed=900)
    )
    deploy_test = throughput_series_from_streams(
        deploy_and_collect([BBA()], 30, seed=1100, watch_time_s=240.0)
    )
    markov_gain, markov_sep = state_structure_gain(
        throughput_series_from_streams(markov_train), markov_test
    )
    deploy_gain, deploy_sep = state_structure_gain(
        throughput_series_from_streams(deploy_train), deploy_test
    )
    fit = {
        "markov_gain": markov_gain,
        "deploy_gain": deploy_gain,
        "markov_separation": markov_sep,
        "deploy_separation": deploy_sep,
    }

    # Control performance of CS2P-MPC in each world.
    control = {
        "markov": {
            "cs2p_mpc": agg(
                run_world(Cs2pMpc(hmm_markov), markov_path_factory, 80, 2000)
            ),
            "mpc_hm": agg(run_world(MpcHm(), markov_path_factory, 80, 2000)),
        },
        "deploy": {
            "cs2p_mpc": agg(
                deploy_and_collect(
                    [Cs2pMpc(hmm_deploy)], 120, seed=3000, watch_time_s=240.0
                )
            ),
            "mpc_hm": agg(
                deploy_and_collect([MpcHm()], 120, seed=3000, watch_time_s=240.0)
            ),
            "fugu": agg(
                deploy_and_collect(
                    [Fugu(fugu_predictor)], 120, seed=3000, watch_time_s=240.0
                )
            ),
        },
    }
    return fit, control


def test_related_cs2p(benchmark, cs2p_study):
    fit, control = benchmark(lambda: cs2p_study)

    print(
        "\nCS2P state structure: held-out gain of 3 states over 1 "
        "(session-normalized log-likelihood per observation)"
    )
    print(
        f"  Markov-state world : gain={fit['markov_gain']:.3f}, "
        f"state separation={fit['markov_separation']:.2f}σ"
    )
    print(
        f"  Puffer-style world : gain={fit['deploy_gain']:.3f}, "
        f"state separation={fit['deploy_separation']:.2f}σ"
    )
    print("\nControl performance")
    for world, rows in control.items():
        for name, row in rows.items():
            print(
                f"  {world:<7} {name:<10} stall={row['stall_pct']:6.3f}% "
                f"ssim={row['ssim_db']:5.2f}"
            )

    # Model mismatch (Fig. 2): within sessions, discrete states carry far
    # more explanatory power in the Markov world than in the deployment,
    # and the learned states are better separated there.
    assert fit["markov_gain"] > 1.4 * fit["deploy_gain"], fit
    assert fit["markov_separation"] > fit["deploy_separation"], fit

    # In its home world, CS2P's predictor is at least competitive with the
    # harmonic mean on quality at comparable stalls.
    markov = control["markov"]
    assert markov["cs2p_mpc"]["ssim_db"] >= markov["mpc_hm"]["ssim_db"] - 0.3
    assert markov["cs2p_mpc"]["stall_pct"] <= markov["mpc_hm"]["stall_pct"] * 2.5

    # In the deployment, CS2P's discrete-state assumption buys nothing
    # decisive over HM, and Fugu's direct transmission-time model beats
    # both on the stall axis without giving up quality.
    deploy = control["deploy"]
    assert deploy["fugu"]["stall_pct"] < deploy["cs2p_mpc"]["stall_pct"], deploy
    assert deploy["fugu"]["stall_pct"] < deploy["mpc_hm"]["stall_pct"], deploy
    assert deploy["fugu"]["ssim_db"] >= deploy["cs2p_mpc"]["ssim_db"] - 0.3
