"""Trace tooling: mahimahi format I/O and synthetic FCC-style traces.

The paper's emulation experiments (§5.2, Fig. 11) replay the FCC "Measuring
Broadband America" traces in mahimahi shells, following Pensieve's method.
The real traces are not redistributable here, so :mod:`repro.traces.fcc`
synthesizes traces with the FCC dataset's salient properties: per-trace mean
throughputs concentrated in the 0.2–6 Mbit/s band used by Pensieve's
preprocessing, modest within-trace variability, and *no* deep heavy-tailed
fades — the very mismatch versus real deployment traffic that Fig. 11
exposes (right panel: throughput distributions of FCC vs. Puffer).
"""
