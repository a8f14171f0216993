"""Batch executor: a per-session fast path for BBA, BOLA and rate-based.

``run_session_batch`` runs its sessions one after another on a lean copy of
the scalar stack — menu block rows read without a ``ChunkMenu``,
``BbrLike.on_round`` inlined into the TCP round loop, the buffer and the
three decision rules inlined (block menus and the local-variable round loop
themselves are the scalar core's too) — producing
:class:`repro.experiment.harness.SessionShard` objects **bit-identical** to
the scalar
:func:`repro.experiment.harness.run_session` — same random draws, same
float arithmetic, same record contents.  Sessions it does not reproduce
(any other ABR scheme, CUBIC congestion control, telemetry or
observability collection) transparently fall back to the scalar path, so
the batch executor is always safe to enable.

The equivalence contract is enforced by the differential suite in
``tests/batch/`` (see EXPERIMENTS.md for the eligibility criteria, where
the speed comes from, and the tolerance policy — there is none: equality
is exact).
"""

from repro.batch.engine import (
    VECTORIZABLE_SCHEME_TYPES,
    is_vectorizable_algorithm,
    run_session_batch,
)

__all__ = [
    "VECTORIZABLE_SCHEME_TYPES",
    "is_vectorizable_algorithm",
    "run_session_batch",
]
