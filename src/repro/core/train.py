"""TTP training pipeline (§4.3).

"Puffer collects training data by saving client telemetry from real usage
... We train the TTP with standard supervised learning: the training
minimizes the cross-entropy loss between the output probability distribution
and the discretized actual transmission time using stochastic gradient
descent. We retrain the TTP every day, using training data collected on
Puffer over the prior 14 days ... Within the 14-day window, we weight more
recent days more heavily ... The weights from the previous day's model are
loaded to warm-start the retraining."
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

import numpy as np

from repro.core.features import (
    FEATURE_DIM,
    PROPOSED_SIZE_INDEX,
    chunk_feature_rows,
)
from repro.core.ttp import TransmissionTimePredictor
from repro.fields import positive, probability, whole, whole_positive
from repro.learn.losses import SoftmaxCrossEntropy
from repro.learn.optim import Adam
from repro.learn.training import Dataset, Trainer, TrainingReport

if TYPE_CHECKING:  # typing only; avoids a circular import with streaming
    from repro.streaming.session import StreamResult

RETRAIN_WINDOW_DAYS = 14
"""Days of telemetry used per retraining (§4.3)."""

RECENCY_DECAY = 0.9
"""Per-day-of-age multiplier on sample weights within the window."""

_EVAL_STREAM = 0xE7A1
"""Domain-separation constant for held-out-evaluation RNG streams.

Evaluation must never perturb training: the shuffle order of every epoch is
drawn from the trainer's seeded generator, so an evaluation path that shared
that generator (e.g. for a validation split) would silently change the model
that subsequent training produces.  Any randomized evaluation therefore
derives its generator from ``(seed, _EVAL_STREAM, ...)`` — disjoint from
every training draw by construction."""


def _empty_dataset() -> Dataset:
    return Dataset(
        np.zeros((0, FEATURE_DIM)),
        np.zeros(0, dtype=int),
        np.zeros(0),
    )


def build_ttp_datasets(
    streams: Sequence[StreamResult],
    predictor: TransmissionTimePredictor,
    sample_weight: float = 1.0,
    allow_empty: bool = False,
) -> List[Dataset]:
    """Turn stream telemetry into one supervised dataset per horizon step.

    For horizon step ``k``, each example pairs (a) the features available
    when chunk ``i`` was decided — history of the preceding chunks plus the
    ``tcp_info`` snapshot — combined with the *size of chunk i+k*, and
    (b) the discretized actual transmission time of chunk ``i+k``.

    A horizon step with no examples (every stream shorter than ``k+1``
    chunks) raises by default; with ``allow_empty=True`` it yields an empty
    dataset instead, so per-day datasets from a sparse deployment day can
    still be pooled across a retraining window.
    """
    horizon = predictor.config.horizon
    # One pass over the records: per chunk its size, transmission time and
    # tcp_info fields, its label and its place in its stream.
    values: List[Tuple[float, ...]] = []
    labels: List[int] = []
    lengths: List[int] = []
    for stream in streams:
        records = list(stream.records)
        lengths.append(len(records))
        for record in records:
            info = record.info_at_send
            values.append(
                (
                    record.size_bytes, record.transmission_time, info.cwnd,
                    info.in_flight, info.min_rtt, info.rtt,
                    info.delivery_rate,
                )
            )
            labels.append(predictor.label_for(record))
    # Contiguous columns, as each decision's blocks were.
    table = np.array(values, dtype=float).reshape(-1, 7)
    sizes, seconds, tcp = (
        table[:, 0].copy(), table[:, 1].copy(), table[:, 2:].copy()
    )
    if (sizes <= 0).any():
        raise ValueError("proposed sizes must be positive")
    counts = np.array(lengths, dtype=int)
    position = np.arange(len(values)) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    left = np.repeat(counts, counts) - position  # this chunk and later ones
    matrix, size_scaled = chunk_feature_rows(sizes, seconds, tcp, position)
    targets = np.array(labels, dtype=int)
    mask = predictor.config.feature_mask()
    datasets: List[Dataset] = []
    for k in range(horizon):
        # Step k pairs chunk i's decision with chunk i + k of its stream.
        rows = np.flatnonzero(left > k)
        if not len(rows):
            if allow_empty:
                datasets.append(_empty_dataset())
                continue
            raise ValueError(
                f"no training examples for horizon step {k}; need longer streams"
            )
        x = matrix[rows]
        x[:, PROPOSED_SIZE_INDEX] = size_scaled[rows + k]
        x *= mask
        y = targets[rows + k]
        w = np.full(len(y), float(sample_weight))
        datasets.append(Dataset(x, y, w))
    return datasets


@dataclass
class TtpEvaluation:
    """Held-out accuracy figures, the Fig. 7 metrics."""

    cross_entropy: float
    bin_accuracy: float
    expected_abs_error_s: float
    n_examples: int


class TtpTrainer:
    """Supervised trainer for all horizon steps of one TTP."""

    def __init__(
        self,
        predictor: TransmissionTimePredictor,
        epochs: int = 20,
        batch_size: int = 128,
        learning_rate: float = 1e-3,
        seed: int = 0,
    ) -> None:
        owner = "TtpTrainer"
        self.predictor = predictor
        self.epochs = whole_positive(owner, "epochs", epochs)
        self.batch_size = whole_positive(owner, "batch_size", batch_size)
        self.learning_rate = positive(owner, "learning_rate", learning_rate)
        self.seed = whole(owner, "seed", seed)

    def train(
        self,
        datasets: Sequence[Dataset],
        validation: Optional[Sequence[Dataset]] = None,
    ) -> List[TrainingReport]:
        """Train each horizon step's network on its dataset. Training always
        warm-starts from the predictor's current weights (a fresh predictor
        has random weights; a day-old one continues from yesterday)."""
        horizon = self.predictor.config.horizon
        if len(datasets) != horizon:
            raise ValueError("need one dataset per horizon step")
        stack = self.predictor.stack
        trainer = Trainer(
            stack,
            SoftmaxCrossEntropy(),
            optimizer=Adam(stack, lr=self.learning_rate),
            batch_size=self.batch_size,
            epochs=self.epochs,
            # repro: allow-SEED001(per-model offset, injective over the k bin models; reseeding invalidates trained-model digests)
            seed=[self.seed + k for k in range(horizon)],
        )
        # Fitting a stack returns one report per member.
        return cast(
            List[TrainingReport], trainer.fit(datasets, validation=validation)
        )

    def holdout_split(
        self,
        datasets: Sequence[Dataset],
        validation_fraction: float = 0.2,
    ) -> "Tuple[List[Dataset], List[Dataset]]":
        """Split every horizon step's dataset into (train, held-out) parts.

        The split generator is derived from ``(seed, _EVAL_STREAM, step)``
        — domain-separated from every training draw (``Trainer`` seeds its
        shuffle generator with ``seed + step``), so carving out an
        evaluation set can never change which permutations training sees.
        """
        train_parts: List[Dataset] = []
        held_parts: List[Dataset] = []
        for k, dataset in enumerate(datasets):
            rng = np.random.default_rng((self.seed, _EVAL_STREAM, k))
            train, held = dataset.split(validation_fraction, rng)
            train_parts.append(train)
            held_parts.append(held)
        return train_parts, held_parts

    def evaluate(self, dataset: Dataset, step: int = 0) -> TtpEvaluation:
        """Fig. 7 metrics on held-out data for one horizon step.

        Determinism contract: evaluation is a pure forward pass — it draws
        from no generator and mutates no trainer or model state, so
        ``train(); evaluate(); train()`` equals ``train(); train()``
        *exactly* (``tests/core/test_train_determinism.py`` locks this in).
        """
        model = self.predictor.models[step]
        probs = model.predict_proba(dataset.features)
        y = np.asarray(dataset.targets, dtype=int)
        n = len(y)
        eps = 1e-12
        cross_entropy = float(-np.log(probs[np.arange(n), y] + eps).mean())
        if self.predictor.config.point_estimate:
            # The ML variant predicts only its modal bin.
            predicted = probs.argmax(axis=1)
            accuracy = float((predicted == y).mean())
        else:
            accuracy = float((probs.argmax(axis=1) == y).mean())
        centers = (
            self.predictor._tput_centers
            if self.predictor.config.predict_throughput
            else self.predictor._time_centers
        )
        if self.predictor.config.point_estimate:
            point = centers[probs.argmax(axis=1)]
            expected_err = float(np.abs(point - centers[y]).mean())
        else:
            expected_err = float(
                (probs * np.abs(centers[None, :] - centers[y][:, None])).sum(
                    axis=1
                ).mean()
            )
        if self.predictor.config.predict_throughput:
            # Convert throughput error to a comparable relative scale.
            expected_err = expected_err / float(np.mean(centers[y]))
        return TtpEvaluation(
            cross_entropy=cross_entropy,
            bin_accuracy=accuracy,
            expected_abs_error_s=expected_err,
            n_examples=n,
        )


class DailyRetrainer:
    """The in-situ daily retraining loop (§4.3).

    Holds a sliding window of per-day telemetry, weights recent days more
    heavily, and retrains the predictor warm-started from the previous day's
    weights. Snapshots can be taken to reproduce the "out-of-date TTP"
    staleness experiment (§4.6).
    """

    def __init__(
        self,
        predictor: TransmissionTimePredictor,
        window_days: int = RETRAIN_WINDOW_DAYS,
        recency_decay: float = RECENCY_DECAY,
        epochs_per_day: int = 8,
        seed: int = 0,
    ) -> None:
        owner = "DailyRetrainer"
        self.predictor = predictor
        self.window_days = whole_positive(owner, "window_days", window_days)
        if probability(owner, "recency_decay", recency_decay) <= 0.0:
            raise ValueError(
                f"{owner}.recency_decay must lie in (0, 1], "
                f"got {recency_decay!r}"
            )
        self.recency_decay = recency_decay
        self.epochs_per_day = whole_positive(
            owner, "epochs_per_day", epochs_per_day
        )
        self.seed = whole(owner, "seed", seed)
        self._days: Deque[Tuple[int, List[StreamResult]]] = deque(
            maxlen=self.window_days
        )
        # Per retained day, its unweighted per-step datasets: a function of
        # the day's streams (and the predictor's fixed feature mask and
        # labelling) alone, so built once, when the day is first pooled,
        # and dropped when the day leaves the window. Derived data, never
        # part of a checkpoint: a restored retrainer rebuilds it from the
        # streams it was given.
        self._day_sets: Dict[int, List[Dataset]] = {}
        self._day_counter = 0
        self.snapshots: Dict[int, TransmissionTimePredictor] = {}

    @property
    def current_day(self) -> int:
        return self._day_counter

    def add_day(self, streams: Sequence[StreamResult]) -> None:
        """Ingest one day of telemetry (an empty day still advances the
        calendar, so recency weights measure real days of age)."""
        self._day_counter += 1
        if len(self._days) == self.window_days:
            # The append below slides this day out of the window.
            self._day_sets.pop(self._days[0][0], None)
        self._days.append((self._day_counter, list(streams)))

    def window_state(self) -> List[Tuple[int, List[StreamResult]]]:
        """The retained (day_number, streams) window, oldest first — what a
        crash-safe service persists (as archive byte-ranges) to rebuild the
        retrainer after a resume."""
        return [(day, list(streams)) for day, streams in self._days]

    @classmethod
    def restore(
        cls,
        predictor: TransmissionTimePredictor,
        day_counter: int,
        days: Sequence[Tuple[int, Sequence[StreamResult]]],
        window_days: int = RETRAIN_WINDOW_DAYS,
        recency_decay: float = RECENCY_DECAY,
        epochs_per_day: int = 8,
        seed: int = 0,
    ) -> "DailyRetrainer":
        """Rebuild a retrainer mid-deployment.

        ``days`` is the surviving window in ingestion order; ``day_counter``
        is the total number of days ever ingested (it keys the per-day
        training seed, so a restored retrainer's next generation is
        bit-identical to the uninterrupted run's).
        """
        if day_counter < 0:
            raise ValueError("day_counter must be >= 0")
        if len(days) > min(window_days, day_counter):
            raise ValueError("more retained days than the window allows")
        retrainer = cls(
            predictor,
            window_days=window_days,
            recency_decay=recency_decay,
            epochs_per_day=epochs_per_day,
            seed=seed,
        )
        last = day_counter - len(days)
        for day, streams in days:
            if day <= last:
                raise ValueError("retained days must be increasing")
            last = day
        if days and last != day_counter:
            raise ValueError("window must end at day_counter")
        retrainer._days.extend(
            (int(day), list(streams)) for day, streams in days
        )
        retrainer._day_counter = int(day_counter)
        return retrainer

    def window_datasets(self) -> Optional[List[Dataset]]:
        """Recency-weighted pooled datasets over the retained window, or
        ``None`` while some horizon step still has no example anywhere in
        the window (the deployment's first sparse days)."""
        if not self._days:
            return None
        per_step: List[List[Dataset]] = [
            [] for _ in range(self.predictor.config.horizon)
        ]
        for day, streams in self._days:
            if not streams:
                continue
            if day not in self._day_sets:
                self._day_sets[day] = build_ttp_datasets(
                    streams, self.predictor, allow_empty=True
                )
            weight = self.recency_decay ** (self._day_counter - day)
            for k, ds in enumerate(self._day_sets[day]):
                if len(ds):
                    per_step[k].append(
                        Dataset(
                            ds.features, ds.targets, np.full(len(ds), weight)
                        )
                    )
        if any(not parts for parts in per_step):
            return None
        return [Dataset.concatenate(parts) for parts in per_step]

    def retrain(
        self, datasets: Optional[Sequence[Dataset]] = None
    ) -> List[TrainingReport]:
        """Retrain on the window, recency-weighted, warm-started.
        ``datasets`` is today's :meth:`window_datasets`, for a caller that
        pooled the window already (to evaluate on it, say)."""
        if not self._days:
            raise RuntimeError("no telemetry ingested yet")
        if datasets is None:
            datasets = self.window_datasets()
        if datasets is None:
            raise ValueError(
                "no training examples for some horizon step in the window; "
                "need longer streams"
            )
        trainer = TtpTrainer(
            self.predictor,
            epochs=self.epochs_per_day,
            seed=self.seed + self._day_counter,
        )
        return trainer.train(datasets)

    def snapshot(self) -> TransmissionTimePredictor:
        """Freeze a copy of today's model (an 'out-of-date' TTP later)."""
        frozen = self.predictor.copy()
        self.snapshots[self._day_counter] = frozen
        return frozen
