"""Congestion-control models for the fluid TCP connection.

Puffer's primary experiment ran every scheme over BBR (§3.2); a CUBIC-like
loss-based controller is provided as well because part of the study's traffic
was assigned CUBIC (Fig. A1) and because the two produce different
``tcp_info`` signatures for the TTP to learn from.
"""

from repro.net.cc.base import CongestionControl
from repro.net.cc.bbr import BbrLike
from repro.net.cc.cubic import CubicLike

__all__ = ["CongestionControl", "BbrLike", "CubicLike"]
