"""Fluid per-session transport for shared-bottleneck cells.

When a session's downloads are paced by externally allocated fair-share
rates, the RTT-round TCP machinery of :class:`repro.net.tcp.TcpConnection`
no longer applies — the cell engine *is* the congestion controller.  A
:class:`FluidFlow` is what remains of the connection from the ABR's point
of view: the ``tcp_info()`` snapshot it reads before choosing a rung, and
the ``busy_until`` serialization point the session machine consults between
streams.

The snapshot is a documented fluid approximation of the kernel statistics:

* ``delivery_rate`` — the measured rate of the most recent completed
  download (``size * 8 / transmission_time``), exactly the quantity Linux's
  rate sampler would converge to over the transfer;
* ``cwnd`` — the bandwidth-delay product of that rate at the path's base
  RTT (a saturated fluid sender keeps one BDP in flight), floored at
  TCP's ten-segment initial window;
* ``rtt``/``min_rtt`` — the path's propagation delay (fluid flows do not
  model queueing delay; contention appears as reduced rate instead).
"""

from __future__ import annotations

from repro.net.cc.base import DEFAULT_MSS
from repro.net.path import NetworkPath
from repro.net.tcp import TcpInfo, make_tcp_info

_INITIAL_WINDOW_SEGMENTS = 10.0
"""TCP's IW10: what ``cwnd`` reads before any download completes."""


class FluidFlow:
    """One session's flow through a shared cell bottleneck.

    State is mutated only by the cell engine (single-threaded, in event
    order), so the flow is as deterministic as the engine driving it.
    Times are session-relative, matching the session machine's own clock.
    """

    def __init__(self, path: NetworkPath, mss: int = DEFAULT_MSS) -> None:
        self.path = path
        self.base_rtt = float(path.base_rtt)
        self.cc_name = path.cc_name
        self.mss = int(mss)
        self.min_rtt = self.base_rtt
        self.srtt = self.base_rtt
        self.delivery_rate_bps = 0.0
        self.busy_until = 0.0
        self.downloading = False

    def tcp_info(self) -> TcpInfo:
        """Sender statistics under the fluid approximation (see module
        docstring)."""
        bdp_segments = (
            self.delivery_rate_bps / 8.0 * self.srtt
        ) / self.mss
        cwnd = max(bdp_segments, _INITIAL_WINDOW_SEGMENTS)
        return make_tcp_info(
            cwnd,
            cwnd if self.downloading else 0.0,
            self.min_rtt,
            self.srtt,
            self.delivery_rate_bps,
        )

    def record_download(
        self, size_bytes: float, transmission_time: float, end_time: float
    ) -> None:
        """Fold one completed download into the flow's statistics.

        ``end_time`` is session-relative (``send_at + transmission_time``);
        it becomes the new ``busy_until`` — chunks are serialized in order
        on the one flow, exactly as on a real connection.
        """
        if transmission_time > 0:
            self.delivery_rate_bps = size_bytes * 8.0 / transmission_time
        self.busy_until = end_time
        self.downloading = False
