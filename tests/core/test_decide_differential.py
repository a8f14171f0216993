"""The decide step against its frozen predecessor, bit for bit.

One model call per decision, a shared outcome row and a memoised DP
geometry must change *when* arithmetic happens and never *which*: for every
TTP variant, the horizon-wide ``predict`` returns the distributions the
step-wise one did, and the planner scores every rung of the first menu to
the same float64 bits (``tests/core/decide_reference.py``). No tolerance
anywhere in this file.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.base import AbrContext, ChunkRecord
from repro.abr.mpc import HarmonicMeanPredictor
from repro.core.controller import TimeDistribution, ValueIterationController
from repro.core.fugu import make_fugu_variant
from repro.net.tcp import TcpInfo
from repro.streaming.session import StreamResult

from tests.core.decide_reference import (
    reference_distribution,
    reference_feature_matrix,
    reference_scores,
)
from tests.core.test_controller_reference import make_menu

VARIANTS = (
    "full",
    "point_estimate",
    "throughput",
    "linear",
    "shallow",
    "no_tcp",
    "no_rtt",
    "no_cwnd",
    "no_in_flight",
    "no_delivery_rate",
)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def make_record(rng, index):
    info = TcpInfo(
        cwnd=float(rng.integers(2, 400)),
        in_flight=float(rng.integers(0, 200)),
        min_rtt=float(rng.uniform(0.005, 0.3)),
        rtt=float(rng.uniform(0.005, 0.6)),
        delivery_rate=float(rng.lognormal(14.0, 2.0)),
    )
    return ChunkRecord(
        chunk_index=index,
        rung=int(rng.integers(0, 10)),
        size_bytes=float(rng.lognormal(12.5, 1.0)),
        ssim_db=float(rng.uniform(6.0, 18.0)),
        # Reaches past 9.75 s, so the tail bin is exercised.
        transmission_time=float(rng.lognormal(-0.5, 1.5)),
        info_at_send=info,
        send_time=2.0 * index,
    )


@st.composite
def contexts(draw):
    """A decision point: 0–12 chunks of history, 1–5 menus ahead whose rung
    counts differ from step to step."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    history = [make_record(rng, i) for i in range(draw(st.integers(0, 12)))]
    menus = []
    for step in range(draw(st.integers(1, 5))):
        n_rungs = draw(st.integers(2, 10))
        menus.append(
            make_menu(
                len(history) + step,
                np.sort(rng.lognormal(12.5, 1.0, n_rungs)),
                np.sort(rng.uniform(5.0, 19.0, n_rungs)),
                duration=2.002,
            )
        )
    return AbrContext(
        lookahead=menus,
        buffer_s=draw(st.floats(0.0, 16.0)),
        tcp_info=make_record(rng, 0).info_at_send,
        history=history,
        last_ssim_db=draw(st.one_of(st.none(), st.floats(4.0, 20.0))),
    )


def sizes_per_step(context):
    return [np.asarray(menu.sizes) for menu in context.lookahead]


@pytest.mark.parametrize("variant", VARIANTS)
class TestTtpAgainstStepwiseReference:
    @given(context=contexts(), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_horizon_call_returns_the_stepwise_distributions(
        self, variant, context, seed
    ):
        ttp, _ = make_fugu_variant(variant, seed=seed)
        dists = ttp.predict(context, sizes_per_step(context))
        assert len(dists) == len(context.lookahead)
        for step, (dist, sizes) in enumerate(
            zip(dists, sizes_per_step(context))
        ):
            old = reference_distribution(
                ttp, context.history, context.tcp_info, sizes, step
            )
            assert same_bits(dist.probs, old.probs)
            assert dist.times.shape[0] in (1, len(sizes))
            assert same_bits(
                np.broadcast_to(dist.times, old.times.shape), old.times
            )
            # The single-step public call is the same computation.
            single = ttp.distribution(
                context.history, context.tcp_info, sizes, step=step
            )
            assert same_bits(single.probs, dist.probs)
            assert same_bits(single.times, dist.times)

    @given(context=contexts(), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_planner_scores_and_choice(self, variant, context, seed):
        ttp, _ = make_fugu_variant(variant, seed=seed)
        controller = ValueIterationController()
        steps = len(context.lookahead)

        def stepwise(ctx, step, sizes):
            return reference_distribution(
                ttp, ctx.history, ctx.tcp_info, sizes, step
            )

        old = reference_scores(controller, context, stepwise, steps)
        # Twice: the second plan reads the geometry the first one memoised.
        for _ in range(2):
            new = controller._scores(context, ttp, steps)
            assert same_bits(new, old)
            assert controller.plan(context, ttp) == int(np.argmax(old))


class TestFeatureRows:
    @given(context=contexts())
    @settings(max_examples=50, deadline=None)
    def test_masked_features_match_the_tiled_matrix(self, context):
        ttp, _ = make_fugu_variant("no_rtt", seed=1)
        sizes = np.asarray(context.menu.sizes)
        assert same_bits(
            ttp.masked_features(context.history, context.tcp_info, sizes),
            reference_feature_matrix(context.history, context.tcp_info, sizes)
            * ttp._mask,
        )


class TestPointMassModels:
    @given(context=contexts(), robust=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_harmonic_mean_planner_scores(self, context, robust):
        # (n_rungs, 1) times: the planner's other input shape, which never
        # touches the geometry memo.
        predictor = HarmonicMeanPredictor(robust=robust)
        if context.history:
            predictor.predict(context, sizes_per_step(context))
            predictor.observe(context.history[-1])
        estimate = predictor.throughput_estimate(context)

        def stepwise(ctx, step, sizes):
            return TimeDistribution.point_mass(
                np.asarray(sizes, dtype=float) * 8.0 / estimate
            )

        controller = ValueIterationController()
        steps = len(context.lookahead)
        old = reference_scores(controller, context, stepwise, steps)
        assert same_bits(controller._scores(context, predictor, steps), old)
        assert controller._geometry_memo == {}


def tail_stream(seconds):
    rng = np.random.default_rng(0)
    records = []
    for i, t in enumerate(seconds):
        record = make_record(rng, i)
        records.append(
            ChunkRecord(
                chunk_index=i,
                rung=record.rung,
                size_bytes=record.size_bytes,
                ssim_db=record.ssim_db,
                transmission_time=t,
                info_at_send=record.info_at_send,
                send_time=record.send_time,
            )
        )
    return StreamResult(stream_id=0, scheme_name="fugu", records=records)


class TestGeometryMemoCannotGoStale:
    """``calibrate_tail`` and ``load_state_dict`` move the tail bin's centre
    *in place*; a controller that planned before must plan after as a
    controller that never saw the old centre."""

    def scores(self, controller, context, ttp):
        return controller._scores(context, ttp, len(context.lookahead))

    @given(context=contexts())
    @settings(max_examples=25, deadline=None)
    def test_calibrate_tail_between_plans(self, context):
        ttp, _ = make_fugu_variant("full", seed=3)
        controller = ValueIterationController()
        before = self.scores(controller, context, ttp)
        ttp.calibrate_tail([tail_stream([12.0, 31.0, 48.5])])
        assert ttp.tail_center_s != 16.0
        after = self.scores(controller, context, ttp)
        fresh = self.scores(ValueIterationController(), context, ttp)
        assert same_bits(after, fresh)
        # And the old geometry was not overwritten by the new one.
        ttp.load_state_dict({**ttp.state_dict(), "tail_center_s": 16.0})
        assert same_bits(self.scores(controller, context, ttp), before)

    @given(context=contexts())
    @settings(max_examples=25, deadline=None)
    def test_load_state_dict_with_another_tail(self, context):
        ttp, _ = make_fugu_variant("full", seed=4)
        controller = ValueIterationController()
        self.scores(controller, context, ttp)
        ttp.load_state_dict({**ttp.state_dict(), "tail_center_s": 27.25})
        after = self.scores(controller, context, ttp)
        fresh = self.scores(ValueIterationController(), context, ttp)
        assert same_bits(after, fresh)

    def test_memo_is_bounded(self):
        ttp, _ = make_fugu_variant("full", seed=5)
        controller = ValueIterationController()
        rng = np.random.default_rng(9)
        context = AbrContext(
            lookahead=[make_menu(0, [1e5, 9e5], [8.0, 15.0])],
            buffer_s=6.0,
            tcp_info=make_record(rng, 0).info_at_send,
        )
        for i in range(40):
            ttp.load_state_dict(
                {**ttp.state_dict(), "tail_center_s": 10.0 + i}
            )
            controller.plan(context, ttp)
            assert len(controller._geometry_memo) <= 8

    def test_returned_row_is_not_the_predictors_own(self):
        ttp, _ = make_fugu_variant("full", seed=6)
        info = make_record(np.random.default_rng(2), 0).info_at_send
        dist = ttp.distribution([], info, np.array([1e5, 5e5]))
        ttp.load_state_dict({**ttp.state_dict(), "tail_center_s": 40.0})
        assert dist.times[0, -1] == 16.0
