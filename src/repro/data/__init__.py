"""Open-data archive tooling (Appendix B).

Puffer "publish[es] an archive of traces and results each day": CSV tables
``video_sent``, ``video_acked`` and ``client_buffer``, with sensitive
fields redacted. This package writes the simulator's telemetry in that
format and loads it back for analysis, so analysis code is exercised
against the same interchange format a consumer of the real archive uses.
The record types of :mod:`repro.streaming.telemetry` define the columns;
one reader serves whole days and byte-range slices, and a table it cannot
read as written raises :class:`ArchiveError`.
"""
