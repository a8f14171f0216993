"""Work with Puffer-format telemetry (Appendix B).

Generates a stream with telemetry recording enabled, then analyzes the
three open-data tables exactly the way a consumer of the public Puffer
archive would: join ``video_sent``/``video_acked`` to recover per-chunk
transmission times, and read stall behaviour off ``client_buffer``.

Run:  python examples/telemetry_analysis.py
"""

import numpy as np

from repro.abr.mpc import MpcHm
from repro.media.encoder import VbrEncoder
from repro.media.source import DEFAULT_CHANNELS, VideoSource
from repro.net.link import HeavyTailLink
from repro.net.tcp import TcpConnection
from repro.streaming.simulator import simulate_stream
from repro.streaming.telemetry import BufferEvent, TelemetryLog


def main():
    rng = np.random.default_rng(4)
    source = VideoSource(DEFAULT_CHANNELS[1], rng=rng)
    encoder = VbrEncoder(rng=rng)
    link = HeavyTailLink(base_bps=3e6, fade_rate=0.02, seed=4)
    connection = TcpConnection(link, base_rtt=0.07)
    telemetry = TelemetryLog()

    result = simulate_stream(
        encoder.stream(source),
        MpcHm(),
        connection,
        watch_time_s=300.0,
        stream_id=42,
        expt_id=3,
        telemetry=telemetry,
    )

    print("Open-data tables collected for one stream:")
    print(f"  video_sent    : {len(telemetry.video_sent):5d} rows")
    print(f"  video_acked   : {len(telemetry.video_acked):5d} rows")
    print(f"  client_buffer : {len(telemetry.client_buffer):5d} rows\n")

    # Join sent/acked on chunk_index to recover transmission times — the
    # TTP's training labels come from exactly this join (§4.3).
    acked_at = {r.chunk_index: r.time for r in telemetry.video_acked}
    transmission_times = [
        acked_at[r.chunk_index] - r.time
        for r in telemetry.video_sent
        if r.chunk_index in acked_at
    ]
    print("Per-chunk transmission times from the sent/acked join:")
    print(f"  mean   {np.mean(transmission_times):6.3f} s")
    print(f"  median {np.median(transmission_times):6.3f} s")
    print(f"  p95    {np.percentile(transmission_times, 95):6.3f} s")
    print(f"  max    {np.max(transmission_times):6.3f} s\n")

    # TCP statistics logged at send time (the TTP's input features).
    rates = [r.delivery_rate / 1e6 for r in telemetry.video_sent if r.delivery_rate]
    rtts = [r.rtt * 1000 for r in telemetry.video_sent]
    print("Sender-side tcp_info at send time:")
    print(f"  delivery_rate: median {np.median(rates):5.2f} Mbit/s")
    print(f"  smoothed RTT : median {np.median(rtts):5.1f} ms\n")

    rebuffers = [
        r for r in telemetry.client_buffer if r.event == BufferEvent.REBUFFER
    ]
    print(
        f"client_buffer: {len(rebuffers)} rebuffer events, "
        f"cumulative {result.stall_time:.2f} s stalled "
        f"({result.stall_ratio * 100:.2f}% of watch time)"
    )


if __name__ == "__main__":
    main()
