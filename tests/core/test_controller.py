"""Tests for repro.core.controller — stochastic value-iteration MPC."""

import numpy as np
import pytest

from repro.abr.base import AbrContext
from repro.core.controller import (
    TimeDistribution,
    ValueIterationController,
    horizon_sizes,
)
from repro.core.qoe import QoeParams
from repro.media.encoder import encode_clip
from repro.media.source import DEFAULT_CHANNELS
from repro.net.tcp import TcpInfo


def info():
    return TcpInfo(cwnd=10, in_flight=0, min_rtt=0.05, rtt=0.05, delivery_rate=0)


def ctx(buffer_s=10.0, last_ssim=None, seed=0, n=8):
    menus = encode_clip(DEFAULT_CHANNELS[0], n, seed=seed)
    return AbrContext(
        lookahead=menus, buffer_s=buffer_s, tcp_info=info(),
        last_ssim_db=last_ssim,
    )


class ConstantThroughputModel:
    """Deterministic model: transmission time = size / throughput."""

    def __init__(self, throughput_bps):
        self.throughput_bps = throughput_bps

    def predict(self, context, menus):
        return TimeDistribution.point_mass(
            horizon_sizes(menus) * 8.0 / self.throughput_bps
        )


class BimodalModel:
    """Fast most of the time, occasionally catastrophic — stresses the
    stochastic planning that distinguishes Fugu from point-estimate MPC."""

    def __init__(self, slow_probability, slow_time=20.0):
        self.slow_probability = slow_probability
        self.slow_time = slow_time

    def predict(self, context, menus):
        sizes = horizon_sizes(menus)
        fast = sizes * 8.0 / 50e6
        times = np.stack([fast, np.full_like(fast, self.slow_time)], axis=1)
        probs = np.tile(
            [1.0 - self.slow_probability, self.slow_probability],
            (len(sizes), 1),
        )
        return TimeDistribution(times=times, probs=probs)


class TestTimeDistribution:
    def test_point_mass(self):
        dist = TimeDistribution.point_mass([1.0, 2.0])
        assert dist.times.shape == (2, 1)
        np.testing.assert_array_equal(dist.probs, 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimeDistribution(times=np.zeros((2, 3)), probs=np.zeros((2, 2)))

    def test_shared_row_of_times_accepted(self):
        dist = TimeDistribution(
            times=np.array([[0.5, 4.0]]),
            probs=np.array([[0.9, 0.1], [0.6, 0.4], [0.2, 0.8]]),
        )
        dist.validate()

    @pytest.mark.parametrize(
        "times_shape, probs_shape, message",
        [
            ((2, 3), (4, 3), "one row per probs row or one shared row"),
            ((4, 3), (1, 3), "one row per probs row or one shared row"),
            ((1, 2), (4, 3), "same outcome count"),
            ((4, 3), (4, 2), "same outcome count"),
            ((3,), (1, 3), "matrices"),
        ],
    )
    def test_unbroadcastable_shapes_rejected(self, times_shape, probs_shape, message):
        with pytest.raises(ValueError, match=message):
            TimeDistribution(
                times=np.zeros(times_shape), probs=np.zeros(probs_shape)
            )

    def test_validate_checks_probabilities(self):
        dist = TimeDistribution(
            times=np.ones((1, 2)), probs=np.array([[0.7, 0.7]])
        )
        with pytest.raises(ValueError, match="sum to 1"):
            dist.validate()

    def test_validate_checks_negative_times(self):
        dist = TimeDistribution(
            times=np.array([[-1.0]]), probs=np.array([[1.0]])
        )
        with pytest.raises(ValueError, match="non-negative"):
            dist.validate()


class TestPlanning:
    def test_fast_network_picks_top_rung(self):
        controller = ValueIterationController()
        choice = controller.plan(ctx(buffer_s=13.0), ConstantThroughputModel(100e6))
        assert choice == 9

    def test_slow_network_picks_bottom_rung(self):
        controller = ValueIterationController()
        choice = controller.plan(ctx(buffer_s=1.0), ConstantThroughputModel(2e5))
        assert choice == 0

    def test_choice_monotone_in_throughput(self):
        controller = ValueIterationController()
        choices = [
            controller.plan(ctx(buffer_s=8.0), ConstantThroughputModel(r))
            for r in (3e5, 1e6, 3e6, 1e7, 4e7)
        ]
        assert choices == sorted(choices)

    def test_variation_penalty_smooths_upgrades(self):
        # Coming from a low-SSIM chunk, a huge λ forbids large jumps.
        smooth = ValueIterationController(
            qoe=QoeParams(variation_weight=50.0)
        )
        eager = ValueIterationController(qoe=QoeParams(variation_weight=0.0))
        c_smooth = smooth.plan(
            ctx(buffer_s=13.0, last_ssim=7.0), ConstantThroughputModel(50e6)
        )
        c_eager = eager.plan(
            ctx(buffer_s=13.0, last_ssim=7.0), ConstantThroughputModel(50e6)
        )
        assert c_smooth < c_eager

    def test_stochastic_tail_risk_lowers_choice(self):
        # A 3% chance of a 20 s transfer should deter high rungs when the
        # buffer is shallow but not when it is deep... with Eq. 1 the stall
        # penalty applies either way, so compare against a tail-free model.
        controller = ValueIterationController()
        risky = controller.plan(ctx(buffer_s=6.0), BimodalModel(0.03))
        safe = controller.plan(ctx(buffer_s=6.0), ConstantThroughputModel(50e6))
        assert risky <= safe

    def test_deeper_buffer_absorbs_tail_risk(self):
        controller = ValueIterationController()
        shallow = controller.plan(ctx(buffer_s=2.0), BimodalModel(0.05, 14.0))
        deep = controller.plan(ctx(buffer_s=14.0), BimodalModel(0.05, 14.0))
        assert shallow <= deep

    def test_horizon_capped_by_lookahead(self):
        controller = ValueIterationController(horizon=5)
        short_ctx = ctx(n=2)
        choice = controller.plan(short_ctx, ConstantThroughputModel(1e7))
        assert 0 <= choice < 10

    def test_empty_lookahead_rejected(self):
        controller = ValueIterationController()
        context = ctx()
        context.lookahead = []
        with pytest.raises(ValueError):
            controller.plan(context, ConstantThroughputModel(1e7))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ValueIterationController(horizon=0)
        with pytest.raises(ValueError):
            ValueIterationController(buffer_bin_s=0.0)

    def test_single_step_horizon_matches_greedy(self):
        # With H=1 and a deterministic model, the plan maximizes Eq. 1
        # chunk-by-chunk; verify against brute force.
        from repro.core.qoe import DEFAULT_QOE, chunk_qoe

        controller = ValueIterationController(horizon=1)
        context = ctx(buffer_s=4.0, last_ssim=12.0, seed=3)
        model = ConstantThroughputModel(3e6)
        menu = context.menu
        scores = [
            chunk_qoe(
                DEFAULT_QOE,
                v.ssim_db,
                12.0,
                v.size_bytes * 8.0 / 3e6,
                4.0,
            )
            for v in menu
        ]
        assert controller.plan(context, model) == int(np.argmax(scores))

    @pytest.mark.parametrize("shared_row", [False, True])
    @pytest.mark.parametrize("missing", [1, -1])
    def test_wrong_model_output_shape_rejected(self, missing, shared_row):
        # One row too few or too many for the horizon's (step, rung) pairs,
        # with per-rung times or one shared row.
        class BadModel:
            def predict(self, context, menus):
                rows = len(horizon_sizes(menus)) - missing
                times = np.ones((1 if shared_row else rows, 2))
                return TimeDistribution(times=times, probs=np.ones((rows, 2)) / 2)

        controller = ValueIterationController()
        with pytest.raises(ValueError, match="wrong number of rows"):
            controller.plan(ctx(), BadModel())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_buffer_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match="AbrContext.buffer_s"):
            ValueIterationController().plan(
                ctx(buffer_s=bad), ConstantThroughputModel(1e7)
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_last_quality_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match="AbrContext.last_ssim_db"):
            ValueIterationController().plan(
                ctx(last_ssim=bad), ConstantThroughputModel(1e7)
            )

    @pytest.mark.parametrize("bad", [float("nan"), -5.0])
    @pytest.mark.parametrize(
        "row, where",
        [(3, r"row 3 \(step 0, rung 3\)"), (27, r"row 27 \(step 2, rung 7\)")],
    )
    def test_bad_per_rung_time_rejected_by_model_and_row(self, bad, row, where):
        # Unchecked, a NaN at a step-0 rung streamed that rung (argmax takes
        # the first NaN) and a negative time raised the landing buffer.
        class BadRow(ConstantThroughputModel):
            def predict(self, context, menus):
                times = horizon_sizes(menus) * 8.0 / self.throughput_bps
                times[[row, row + 1]] = bad
                return TimeDistribution.point_mass(times)

        with pytest.raises(ValueError, match=rf"BadRow .* {bad!r} s in {where}"):
            ValueIterationController().plan(ctx(), BadRow(5e6))

    @pytest.mark.parametrize("bad", [float("nan"), -5.0])
    def test_bad_shared_row_rejected_by_model(self, bad):
        # Unchecked, a NaN in the shared row scored every rung NaN and
        # streamed rung 0.
        class BadShared:
            def predict(self, context, menus):
                n = len(horizon_sizes(menus))
                return TimeDistribution(
                    times=np.array([[0.5, bad, 2.0]]),
                    probs=np.tile([0.3, 0.3, 0.4], (n, 1)),
                )

        controller = ValueIterationController()
        for _ in range(2):  # a bad row is never memoised as checked
            with pytest.raises(
                ValueError, match=rf"BadShared .* {bad!r} s in its shared"
            ):
                controller.plan(ctx(), BadShared())

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -2.0, float("inf")])
    @pytest.mark.parametrize("shared_row", [False, True])
    def test_a_chunk_duration_that_is_not_positive_is_rejected(
        self, bad, shared_row
    ):
        # The landing-buffer clips are proved for positive durations; a NaN
        # passes EncodedChunk's own ``duration <= 0`` test.
        context = ctx()
        context.lookahead[2].duration = bad

        class SharedRow:
            def predict(self, context, menus):
                n = len(horizon_sizes(menus))
                return TimeDistribution(
                    times=np.array([[0.5, 2.0]]),
                    probs=np.tile([0.5, 0.5], (n, 1)),
                )

        model = SharedRow() if shared_row else ConstantThroughputModel(5e6)
        with pytest.raises(ValueError, match="chunk durations must be positive"):
            ValueIterationController().plan(context, model)


class TestPointMass:
    @pytest.mark.parametrize("rows", [1, 3, 50, 1024, 1025])
    def test_probabilities_are_a_read_only_column_of_ones(self, rows):
        a = TimeDistribution.point_mass(np.arange(rows, dtype=float))
        b = TimeDistribution.point_mass(np.arange(rows, dtype=float) + 1.0)
        assert a.probs.shape == b.probs.shape == (rows, 1)
        assert a.probs.dtype == np.float64
        np.testing.assert_array_equal(a.probs, 1.0)
        for probs in (a.probs, b.probs):
            assert not probs.flags.writeable
            with pytest.raises(ValueError):
                probs[0, 0] = 0.5
        # Up to 1024 rows, every point mass reads the same ones.
        assert np.shares_memory(a.probs, b.probs) == (rows <= 1024)
