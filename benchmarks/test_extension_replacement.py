"""Extension: chunk replacement (§6.2 future work).

The paper notes Fugu does not "replace already-downloaded chunks in the
buffer with higher quality versions [35]". This bench quantifies what that
capability buys in our environment: idle buffer-full time is spent
upgrading queued low-quality chunks, raising played SSIM — at the cost of
re-downloaded (wasted) bytes — without adding stalls.
"""

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.experiment.harness import TrialConfig
from repro.media.encoder import VbrEncoder
from repro.media.source import DEFAULT_CHANNELS, VideoSource
from repro.net.path import PathSampler
from repro.streaming.replacement import simulate_stream_with_replacement
from repro.streaming.simulator import simulate_stream

N_STREAMS = 80


@pytest.fixture(scope="module")
def replacement_comparison():
    rows = {"plain": [], "replacement": []}
    for i in range(N_STREAMS):
        seed = 3000 + i
        path = PathSampler(seed=seed).next_path()
        for mode in ("plain", "replacement"):
            rng = np.random.default_rng(seed)
            source = VideoSource(DEFAULT_CHANNELS[i % 6], rng=rng)
            encoder = VbrEncoder(rng=rng)
            conn = path.connect(seed=seed)
            if mode == "plain":
                result = simulate_stream(
                    encoder.stream(source), BBA(), conn, watch_time_s=240.0
                )
            else:
                result = simulate_stream_with_replacement(
                    encoder.stream(source), BBA(), conn, watch_time_s=240.0
                )
            rows[mode].append(result)
    return rows


def test_extension_replacement(benchmark, replacement_comparison):
    rows = benchmark(lambda: replacement_comparison)
    plain, upgraded = rows["plain"], rows["replacement"]

    def agg(streams):
        stall = sum(s.stall_time for s in streams) / sum(
            s.watch_time for s in streams
        )
        return (
            float(np.mean([s.mean_ssim_db for s in streams])),
            stall * 100.0,
        )

    plain_ssim, plain_stall = agg(plain)
    up_ssim, up_stall = agg(upgraded)
    total_replacements = sum(s.replacements for s in upgraded)
    wasted_mb = sum(s.wasted_bytes for s in upgraded) / 1e6

    print(
        f"\nChunk replacement extension over BBA ({N_STREAMS} paired streams)"
    )
    print(f"  plain       : ssim={plain_ssim:5.2f} dB stall={plain_stall:.3f}%")
    print(f"  replacement : ssim={up_ssim:5.2f} dB stall={up_stall:.3f}%")
    print(
        f"  {total_replacements} upgrades, {wasted_mb:.1f} MB re-downloaded"
    )

    # The upgrade path actually fires and buys quality.
    assert total_replacements > 0
    assert up_ssim > plain_ssim + 0.05
    # Safety: replacement does not meaningfully worsen stalls.
    assert up_stall <= plain_stall * 1.5 + 0.05
