"""Shared-bottleneck cells and an edge-cache tier for correlated-contention
RCTs (ROADMAP item 4).

Puffer's deployment served sessions that share access networks and CDN
edges, but the private-link trial harness gives every simulated session its
own bottleneck — flash crowds raise arrival *rates* without ever creating
correlated network events.  :mod:`repro.edge` closes that gap:

* :mod:`repro.edge.cells` — a seeded partition of fleet arrivals into
  *cells*.  Sessions inside a cell share an edge bottleneck and cache;
  cells are independent, making :func:`repro.edge.engine.run_cell` the
  pure, fork-safe parallelism unit (a declared purity root) so the fleet
  runner, ``ExactSum`` sinks, checkpoints and ``kill -9`` resume keep
  working byte-identically with cells as the shard key.
* :mod:`repro.edge.fairshare` — exact (integer-numerator) weighted
  max-min water-filling; shares conserve capacity and are permutation
  invariant in session order.
* :mod:`repro.edge.transport` — the per-session fluid flow that stands in
  for a private TCP connection when a session's downloads are paced by
  externally allocated rates.
* :mod:`repro.edge.cache` — a deterministic per-cell LRU over
  ``(channel, chunk-index, quality)``; hits serve in one RTT, misses
  traverse the origin path.
* :mod:`repro.edge.zipf` — seeded Zipf channel popularity with per-cell
  rank permutations (domain-separated tuple seeds).
* :mod:`repro.edge.engine` — the event-driven co-simulation advancing a
  cell's active downloads over a shared :class:`repro.net.link.LinkModel`,
  re-solving fair shares at join/leave/epoch boundaries.  Size-1 cells
  dispatch to the private-link :func:`repro.experiment.harness.run_session`
  and are bit-identical to it.
"""
