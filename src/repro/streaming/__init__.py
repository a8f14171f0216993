"""Streaming stack: playback buffer, chunk-level simulator, telemetry.

Replaces Puffer's media server + browser player (§3.2–3.3) with a
discrete-event model at chunk granularity. The ABR control loop — observe
buffer and TCP state, pick a version, transmit, account stalls — is
identical in shape to the real system's.
"""
