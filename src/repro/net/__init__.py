"""Network substrate: link models and a fluid TCP model with ``tcp_info``.

The paper streams over real wide-area TCP (BBR) connections and feeds the
sender-side Linux ``tcp_info`` structure to Fugu's predictor. This package
replaces the real Internet with:

* :class:`LinkModel` subclasses — time-varying bottleneck capacity processes,
  including the heavy-tailed continuous evolution Puffer observes
  (:class:`HeavyTailLink`) and the discrete-state Markov behaviour CS2P
  assumes (:class:`MarkovLink`) so Fig. 2 can be reproduced;
* a per-RTT-round fluid TCP model (:class:`TcpConnection`) with pluggable
  congestion control (:class:`BbrLike`, :class:`CubicLike`) whose chunk
  transmission times exhibit the slow-start ramp and idle-restart effects
  that make transmission time a *non-linear* function of chunk size — the
  effect the Transmission Time Predictor exploits (§4.2);
* :class:`TcpInfo` snapshots matching the fields of the ``video_sent``
  telemetry record (Appendix B): cwnd, in-flight, RTT, min-RTT,
  delivery-rate.
"""
