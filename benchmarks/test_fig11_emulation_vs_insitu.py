"""Figure 11: emulation versus the real world.

Left panel: performance in the mahimahi/FCC emulation environment.
Middle panel: performance in the deployment, including Emulation-trained
Fugu — "Compared with the in situ Fugu — or with every other ABR scheme —
the real-world performance of emulation-trained Fugu was horrible."
Right panel: the two environments' throughput distributions differ
drastically.

Shape targets:

* emulation-trained Fugu performs well *in emulation* (it was trained
  there) but markedly worse than in-situ Fugu when deployed;
* the ranking of schemes in emulation differs from the deployment ranking
  ("the emulation results differ markedly from the real world");
* the FCC trace distribution is tame next to the deployment's.
"""

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm, RobustMpcHm
from repro.abr.pensieve.policy import Pensieve
from repro.core.fugu import Fugu
from repro.experiment.insitu import deploy_and_collect
from repro.traces.stats import summarize_trace


def summarize(streams):
    stall = sum(s.stall_time for s in streams) / sum(
        s.watch_time for s in streams
    )
    return {
        "stall_pct": stall * 100.0,
        "ssim_db": float(np.mean([s.mean_ssim_db for s in streams])),
    }


@pytest.fixture(scope="module")
def fig11_panels(
    emulation_environment,
    emulation_fugu_predictor,
    fugu_predictor,
    pensieve_model,
):
    def schemes():
        return {
            "bba": BBA(),
            "mpc_hm": MpcHm(),
            "robust_mpc_hm": RobustMpcHm(),
            "pensieve": Pensieve(pensieve_model),
            "fugu": Fugu(fugu_predictor),
            "fugu_emulation": Fugu(
                emulation_fugu_predictor, name="fugu_emulation"
            ),
        }

    emulation = {
        name: summarize(emulation_environment.run_scheme(abr, seed=123))
        for name, abr in schemes().items()
    }
    deployment = {
        name: summarize(
            deploy_and_collect([abr], 200, seed=777, watch_time_s=300.0)
        )
        for name, abr in schemes().items()
    }
    return emulation, deployment


def _print_panel(title, panel):
    print(f"\nFigure 11 — {title}")
    print(f"{'Algorithm':<16}{'Stall %':>9}{'SSIM dB':>9}")
    for name, row in sorted(panel.items()):
        print(f"{name:<16}{row['stall_pct']:>9.2f}{row['ssim_db']:>9.2f}")


def test_fig11_emulation_vs_insitu(
    benchmark, fig11_panels, emulation_environment
):
    emulation, deployment = benchmark(lambda: fig11_panels)
    _print_panel("in emulation (mahimahi + FCC traces)", emulation)
    _print_panel("in deployment (the simulated 'real world')", deployment)

    # Emulation-trained Fugu is competitive in its home environment...
    emu_stalls = {k: v["stall_pct"] for k, v in emulation.items()}
    assert emu_stalls["fugu_emulation"] <= np.median(
        list(emu_stalls.values())
    ), emu_stalls

    # ...but collapses relative to in-situ Fugu in deployment.
    dep = deployment
    assert dep["fugu_emulation"]["stall_pct"] > 1.5 * dep["fugu"]["stall_pct"], dep
    # In deployment it is among the most stall-prone schemes.
    worse_count = sum(
        dep["fugu_emulation"]["stall_pct"] >= row["stall_pct"]
        for name, row in dep.items()
        if name != "fugu_emulation"
    )
    assert worse_count >= 3, dep

    # Training in situ, evaluated in situ, wins over training in emulation:
    # in-situ Fugu is no worse on quality and clearly better on stalls.
    assert dep["fugu"]["ssim_db"] >= dep["fugu_emulation"]["ssim_db"] - 0.3

    # The two environments rank schemes differently (compare stall
    # orderings over the five primary schemes).
    primary = ["bba", "mpc_hm", "robust_mpc_hm", "pensieve", "fugu"]
    emu_order = sorted(primary, key=lambda k: emulation[k]["stall_pct"])
    dep_order = sorted(primary, key=lambda k: deployment[k]["stall_pct"])
    assert emu_order != dep_order, (emu_order, dep_order)

    # Quality levels differ wholesale: the FCC band is slow, so emulation
    # SSIM sits several dB below deployment SSIM for every scheme.
    for name in primary:
        assert emulation[name]["ssim_db"] < deployment[name]["ssim_db"] - 2.0

    # Right panel: throughput distributions. The deployment population is
    # faster and heavier-tailed than the FCC traces.
    from repro.net.path import PathSampler

    fcc_epochs = [r for t in emulation_environment.traces for r in t]
    sampler = PathSampler(seed=31)
    deploy_epochs = []
    for _ in range(60):
        link = sampler.next_path().link
        deploy_epochs.extend(link.sample_epochs(60, epoch=1.0))
    fcc_stats = summarize_trace(fcc_epochs)
    dep_stats = summarize_trace(deploy_epochs)
    print(
        f"\nThroughput distributions: FCC median "
        f"{fcc_stats.median_bps/1e6:.2f} Mbps (tail ratio "
        f"{fcc_stats.tail_ratio:.1f}) vs deployment median "
        f"{dep_stats.median_bps/1e6:.2f} Mbps (tail ratio "
        f"{dep_stats.tail_ratio:.1f})"
    )
    assert dep_stats.median_bps > 2 * fcc_stats.median_bps
    assert dep_stats.tail_ratio > fcc_stats.tail_ratio
