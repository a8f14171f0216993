"""The decide step against its frozen predecessor, bit for bit.

One model call per decision returning one distribution for the horizon, one
stacked forward pass, a shared outcome row, a memoised DP geometry built
once per plan and a step 0 that evaluates one bin must change *when*
arithmetic happens and never *which*: for every shipped model (each TTP
variant, the harmonic-mean and RobustMPC predictors, CS2P with one to four
states) and every rung-count shape, each step's rows of the horizon
distribution are the distribution the step-wise call returned, and the
planner scores every rung of the first menu to the same float64 bits
(``tests/core/decide_reference.py``). No tolerance anywhere in this file.
"""

import copy
import pickle
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.abr.base import AbrContext, ChunkRecord
from repro.abr.cs2p import Cs2pPredictor, DiscreteThroughputHmm
from repro.abr.mpc import HarmonicMeanPredictor
from repro.core.controller import TimeDistribution, ValueIterationController
from repro.core.fugu import make_fugu_variant
from repro.core.ttp import TransmissionTimePredictor
from repro.learn.losses import SoftmaxCrossEntropy
from repro.learn.network import MLP
from repro.learn.training import Dataset, Trainer
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


RUNG_COUNTS = {
    # What production presents: one ladder, so one stacked product per layer.
    "rectangular": st.integers(1, 10).flatmap(
        lambda n: st.lists(st.just(n), min_size=1, max_size=5)
    ),
    # Every step its own rung count: one product per step.
    "ragged": st.lists(st.integers(2, 10), min_size=1, max_size=5),
    # Few distinct counts, so equal neighbours form runs inside a horizon.
    "runs": st.lists(st.sampled_from([1, 3, 4]), min_size=2, max_size=5),
    # One step: a quality block with no penalty block behind it.
    "one_step": st.integers(1, 10).map(lambda n: [n]),
    # Ragged from the first pair on: the value table step 0 reads has
    # another rung count than step 0's own menu.
    "first_two_differ": st.tuples(
        st.lists(st.integers(1, 10), min_size=2, max_size=2, unique=True),
        st.lists(st.integers(1, 10), max_size=3),
    ).map(lambda pair: pair[0] + pair[1]),
}


CHUNK_DURATIONS = st.sampled_from([0.5, 1.001, 2.002, 3.3, 6.006])


@st.composite
def contexts(draw, shape=None, first_chunk=None):
    """A decision point: 0–12 chunks of history and 1–5 menus ahead — fewer
    than the TTP's horizon more often than not — whose rung counts follow
    one of ``RUNG_COUNTS``' shapes, and whose chunks all last 2.002 s, as
    deployed, or each its own duration. ``first_chunk`` fixes whether a
    previous chunk's quality exists (``last_ssim_db``); by default either."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    history = [make_record(rng, i) for i in range(draw(st.integers(0, 12)))]
    if shape is None:
        shape = draw(st.sampled_from(sorted(RUNG_COUNTS)))
    durations = st.just(2.002) if draw(st.booleans()) else CHUNK_DURATIONS
    menus = []
    for step, n_rungs in enumerate(draw(RUNG_COUNTS[shape])):
        menus.append(
            make_menu(
                len(history) + step,
                np.sort(rng.lognormal(12.5, 1.0, n_rungs)),
                np.sort(rng.uniform(5.0, 19.0, n_rungs)),
                duration=draw(durations),
            )
        )
    return AbrContext(
        lookahead=menus,
        buffer_s=draw(st.floats(0.0, 16.0)),
        tcp_info=make_record(rng, 0).info_at_send,
        history=history,
        last_ssim_db=draw(
            {
                True: st.none(),
                False: st.floats(4.0, 20.0),
                None: st.one_of(st.none(), st.floats(4.0, 20.0)),
            }[first_chunk]
        ),
    )


def sizes_per_step(context):
    return [np.asarray(menu.sizes) for menu in context.lookahead]


def step_rows(context):
    """Each step's slice of the horizon distribution's (step, rung) rows."""
    stops = list(accumulate(len(menu.sizes) for menu in context.lookahead))
    return [slice(start, stop) for start, stop in zip([0] + stops, stops)]


def step_distributions(dist, context):
    """The horizon distribution cut into one per step, a shared times row
    kept as it is."""
    return [
        TimeDistribution(
            times=dist.times if len(dist.times) == 1 else dist.times[rows],
            probs=dist.probs[rows],
        )
        for rows in step_rows(context)
    ]


def assert_rows_are_the_stepwise_ones(dist, context, stepwise):
    """Every step's rows of ``dist`` equal ``stepwise(context, step,
    sizes)``'s, bit for bit; a shared times row broadcasts to them."""
    assert len(dist.probs) == sum(len(menu.sizes) for menu in context.lookahead)
    assert len(dist.times) in (1, len(dist.probs))
    steps = step_distributions(dist, context)
    for step, (got, sizes) in enumerate(zip(steps, sizes_per_step(context))):
        old = stepwise(context, step, sizes)
        assert same_bits(got.probs, old.probs)
        assert same_bits(np.broadcast_to(got.times, old.times.shape), old.times)


def ttp_stepwise(ttp):
    """The frozen per-step TTP call, in ``reference_scores``' signature."""

    def step_model(ctx, step, sizes):
        return reference_distribution(
            ttp, ctx.history, ctx.tcp_info, sizes, step
        )

    return step_model


@pytest.mark.parametrize("variant", VARIANTS)
class TestTtpAgainstStepwiseReference:
    @pytest.mark.parametrize("shape", sorted(RUNG_COUNTS))
    @given(data=st.data(), seed=st.integers(0, 50))
    @settings(max_examples=5, deadline=None)
    def test_horizon_call_returns_the_stepwise_distributions(
        self, variant, shape, data, seed
    ):
        context = data.draw(contexts(shape=shape))
        ttp, _ = make_fugu_variant(variant, seed=seed)
        dist = ttp.predict(context, context.lookahead)
        assert_rows_are_the_stepwise_ones(dist, context, ttp_stepwise(ttp))
        for step, (rows, sizes) in enumerate(
            zip(step_distributions(dist, context), sizes_per_step(context))
        ):
            # The single-step public call is the same computation.
            single = ttp.distribution(
                context.history, context.tcp_info, sizes, step=step
            )
            assert same_bits(single.probs, rows.probs)
            assert same_bits(single.times, rows.times)

    @pytest.mark.parametrize("shape", sorted(RUNG_COUNTS))
    @given(data=st.data(), seed=st.integers(0, 50))
    @settings(max_examples=5, deadline=None)
    def test_planner_scores_and_choice(self, variant, shape, data, seed):
        context = data.draw(contexts(shape=shape))
        ttp, _ = make_fugu_variant(variant, seed=seed)
        controller = ValueIterationController()
        steps = len(context.lookahead)
        old = reference_scores(controller, context, ttp_stepwise(ttp), steps)
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
    @pytest.mark.parametrize("first_chunk", [True, False])
    @pytest.mark.parametrize("shape", sorted(RUNG_COUNTS))
    @given(data=st.data(), robust=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_harmonic_mean_planner_scores(self, shape, first_chunk, data, robust):
        # (n_rungs, 1) times: the planner's other input shape, which never
        # touches the geometry memo.
        context = data.draw(contexts(shape=shape, first_chunk=first_chunk))
        predictor = HarmonicMeanPredictor(robust=robust)
        if context.history:
            predictor.predict(context, context.lookahead)
            predictor.observe(context.history[-1])
        estimate = predictor.throughput_estimate(context)

        def stepwise(ctx, step, sizes):
            return TimeDistribution.point_mass(
                np.asarray(sizes, dtype=float) * 8.0 / estimate
            )

        assert_rows_are_the_stepwise_ones(
            predictor.predict(context, context.lookahead), context, stepwise
        )
        controller = ValueIterationController()
        steps = len(context.lookahead)
        old = reference_scores(controller, context, stepwise, steps)
        # Twice: the second plan reads the row layout the first one kept.
        for _ in range(2):
            assert same_bits(
                controller._scores(context, predictor, steps), old
            )
        # A one-rung menu's only row is a shared row.
        if all(len(menu) > 1 for menu in context.lookahead):
            assert controller._geometry_memo == {}


    def test_a_one_outcome_row_must_be_exactly_certain(self):
        # The planner takes a one-outcome row as certain and skips the
        # weighting, so validate() holds it to exactly 1.0 — a row within
        # the row-sum tolerance is not enough.
        TimeDistribution.point_mass([0.3, 1.7]).validate()
        almost = TimeDistribution(
            times=np.array([[0.3], [1.7]]),
            probs=np.array([[1.0], [1.0 - 1e-12]]),
        )
        with pytest.raises(ValueError, match="exactly 1"):
            almost.validate()

    @given(context=contexts())
    @settings(max_examples=20, deadline=None)
    def test_every_shipped_point_mass_is_exact(self, context):
        ttp, _ = make_fugu_variant("point_estimate", seed=1)
        for model in (
            HarmonicMeanPredictor(),
            ttp,
            Cs2pPredictor(DiscreteThroughputHmm(1)),
        ):
            dist = model.predict(context, context.lookahead)
            assert dist.probs.shape[1] == 1
            dist.validate()

    def test_a_negative_zero_outcome_scores_as_the_sum_did(self):
        # A rung of quality -0.0 that cannot stall: its one outcome is
        # worth -0.0, and a length-1 sum over outcomes returned +0.0.
        menu = make_menu(0, [1000.0, 2000.0], [-0.0, 3.0])
        context = AbrContext(
            lookahead=[menu],
            buffer_s=10.0,
            tcp_info=make_record(np.random.default_rng(0), 0).info_at_send,
            history=[],
            last_ssim_db=None,
        )

        def stepwise(ctx, step, sizes):
            return TimeDistribution.point_mass(np.asarray(sizes) * 1e-9)

        controller = ValueIterationController()
        old = reference_scores(controller, context, stepwise, 1)
        new = controller._scores(context, PerStepModel(stepwise), 1)
        assert same_bits(new, old)
        assert new[0] == 0.0 and not np.signbit(new[0])


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
            # The per-rung row layouts live under the same rule: a caller
            # whose chunk duration keeps changing cannot grow them either.
            context.lookahead = [
                make_menu(0, [1e5, 9e5], [8.0, 15.0], duration=2.0 + i)
            ]
            controller.plan(context, HarmonicMeanPredictor())
            assert len(controller._layout_memo) <= 8

    def test_returned_row_is_not_the_predictors_own(self):
        ttp, _ = make_fugu_variant("full", seed=6)
        info = make_record(np.random.default_rng(2), 0).info_at_send
        dist = ttp.distribution([], info, np.array([1e5, 5e5]))
        ttp.load_state_dict({**ttp.state_dict(), "tail_center_s": 40.0})
        assert dist.times[0, -1] == 16.0


def stacked_rows(ttp, context):
    """``predict``'s probabilities, one array per step."""
    probs = ttp.predict(context, context.lookahead).probs
    return [probs[rows] for rows in step_rows(context)]


def member_rows(ttp, context):
    """The same rows from each step network on its own — the pass the
    stacked one replaced."""
    return [
        ttp.models[step].predict_proba(
            ttp.masked_features(context.history, context.tcp_info, sizes)
        )
        for step, sizes in enumerate(sizes_per_step(context))
    ]


def assert_stacked_pass_is_current(ttp, context):
    """The parameter block behind ``predict`` holds what the step networks
    hold now: the stacked rows equal each member's own, and those of a
    predictor built afresh from ``state_dict()``."""
    fresh = TransmissionTimePredictor.from_state_dict(ttp.state_dict())
    for stacked, member, rebuilt in zip(
        stacked_rows(ttp, context),
        member_rows(ttp, context),
        stacked_rows(fresh, context),
    ):
        assert same_bits(stacked, member)
        assert same_bits(stacked, rebuilt)


@pytest.mark.parametrize("variant", ["full", "linear", "shallow", "throughput"])
class TestParameterBlockWriteThrough:
    """Every step network's weights are views of one block per layer; the
    paths that change weights do it in place, so the block follows."""

    @given(context=contexts(shape="rectangular"), step=st.integers(0, 4))
    @settings(max_examples=5, deadline=None)
    def test_after_an_optimizer_step(self, variant, context, step):
        ttp, _ = make_fugu_variant(variant, seed=2)
        before = stacked_rows(ttp, context)
        rng = np.random.default_rng(step)
        dataset = Dataset(
            rng.normal(size=(48, 22)),
            rng.integers(0, ttp.config.n_output_bins, 48),
        )
        # With validation, fit also restores its best epoch through
        # load_state_dict.
        Trainer(
            ttp.models[step], SoftmaxCrossEntropy(), epochs=2, seed=step
        ).fit(dataset, validation=dataset)
        assert_stacked_pass_is_current(ttp, context)
        if step < len(before):
            assert not same_bits(stacked_rows(ttp, context)[step], before[step])

    @given(context=contexts())
    @settings(max_examples=5, deadline=None)
    def test_after_load_copy_and_rebuild(self, variant, context):
        ttp, _ = make_fugu_variant(variant, seed=3)
        donor, _ = make_fugu_variant(variant, seed=4)
        ttp.load_state_dict(donor.state_dict())
        assert_stacked_pass_is_current(ttp, context)
        for a, b in zip(stacked_rows(ttp, context), stacked_rows(donor, context)):
            assert same_bits(a, b)
        clone = ttp.copy()
        assert_stacked_pass_is_current(clone, context)
        # The clone has its own block: training it leaves the source alone.
        for _, value, _grad in clone.models[0].parameters():
            value += 0.5
        assert_stacked_pass_is_current(clone, context)
        for a, b in zip(stacked_rows(ttp, context), stacked_rows(donor, context)):
            assert same_bits(a, b)

    @pytest.mark.parametrize(
        "duplicate",
        [copy.deepcopy, lambda ttp: pickle.loads(pickle.dumps(ttp))],
        ids=["deepcopy", "pickle"],
    )
    @given(context=contexts(shape="rectangular"))
    @settings(max_examples=3, deadline=None)
    def test_a_duplicate_keeps_its_views(self, variant, duplicate, context):
        # Both restore arrays one by one, which alone would leave the step
        # networks and the block as unrelated copies.
        ttp, _ = make_fugu_variant(variant, seed=5)
        twin = duplicate(ttp)
        for _, value, _grad in twin.models[0].parameters():
            value *= 1.5
        assert_stacked_pass_is_current(twin, context)
        assert not same_bits(
            stacked_rows(twin, context)[0], stacked_rows(ttp, context)[0]
        )

    def test_a_step_network_cannot_be_swapped_out(self, variant):
        ttp, _ = make_fugu_variant(variant, seed=6)
        other = MLP(22, list(ttp.config.hidden), ttp.config.n_output_bins)
        with pytest.raises(TypeError):
            ttp.models[0] = other
        with pytest.raises(AttributeError):
            ttp.models = [other] * ttp.config.horizon


class TestStepRange:
    def test_steps_beyond_the_trained_horizon_are_rejected(self):
        ttp, _ = make_fugu_variant("full", seed=0, horizon=3)
        info = make_record(np.random.default_rng(0), 0).info_at_send
        sizes = np.array([1e5, 4e5])
        with pytest.raises(ValueError, match=r"step must lie in \[0, 3\)"):
            ttp.distribution([], info, sizes, step=3)
        with pytest.raises(ValueError, match="step must lie"):
            ttp.distribution([], info, sizes, step=-1)
        context = AbrContext(
            lookahead=[make_menu(i, sizes, [8.0, 12.0]) for i in range(4)],
            buffer_s=3.0,
            tcp_info=info,
        )
        with pytest.raises(ValueError, match="step must lie"):
            ttp.predict(context, context.lookahead)


BUFFER_LEVELS = [-2.5, -0.0, 0.0, 0.25, 0.75, 7.25, 7.5, 14.75, 15.0, 15.2, 90.0]
"""Negative, zero, exactly on a bin edge (half-way between two grid points,
where rounding goes to the even bin), on a grid point, the top of the grid
and beyond it."""


class TestStepZeroAtTheCurrentBin:
    """Step 0 evaluates one bin; the reference evaluates all 31 and picks."""

    @pytest.mark.parametrize("buffer_s", BUFFER_LEVELS)
    @pytest.mark.parametrize("variant", ["full", "throughput", "point_estimate"])
    @given(context=contexts())
    @settings(max_examples=8, deadline=None)
    def test_ttp_scores(self, variant, buffer_s, context):
        context.buffer_s = buffer_s
        ttp, _ = make_fugu_variant(variant, seed=8)
        controller = ValueIterationController()
        steps = len(context.lookahead)
        old = reference_scores(controller, context, ttp_stepwise(ttp), steps)
        assert same_bits(controller._scores(context, ttp, steps), old)

    @pytest.mark.parametrize("buffer_s", BUFFER_LEVELS)
    def test_other_grids(self, buffer_s):
        # The grid's top bin is not always max_buffer_s / buffer_bin_s.
        rng = np.random.default_rng(3)
        ttp, _ = make_fugu_variant("full", seed=9)
        context = AbrContext(
            lookahead=[
                make_menu(i, np.sort(rng.lognormal(12.5, 1.0, 6)),
                          np.sort(rng.uniform(5.0, 19.0, 6)), duration=2.002)
                for i in range(4)
            ],
            buffer_s=buffer_s,
            tcp_info=make_record(rng, 0).info_at_send,
            last_ssim_db=11.0,
        )
        for max_buffer_s, bin_s in [(15.0, 0.5), (7.0, 0.4), (20.0, 1.5)]:
            controller = ValueIterationController(
                horizon=4, max_buffer_s=max_buffer_s, buffer_bin_s=bin_s
            )
            old = reference_scores(controller, context, ttp_stepwise(ttp), 4)
            assert same_bits(controller._scores(context, ttp, 4), old)


class PerStepModel:
    """A model that answers the horizon-wide call from a step-wise one
    whose every step has a times row per rung."""

    def __init__(self, stepwise):
        self.stepwise = stepwise

    def predict(self, context, menus):
        dists = [
            self.stepwise(context, step, np.asarray(menu.sizes))
            for step, menu in enumerate(menus)
        ]
        return TimeDistribution(
            times=np.concatenate([dist.times for dist in dists]),
            probs=np.concatenate([dist.probs for dist in dists]),
        )


def cs2p_stepwise(predictor):
    """``Cs2pPredictor.predict`` as it was, one step per call: the belief
    propagated ``step + 1`` transitions, tiled over the step's rungs."""
    hmm = predictor.hmm

    def step_model(ctx, step, sizes):
        observations = [
            r.observed_throughput_bps for r in ctx.history[-predictor.window :]
        ]
        belief = hmm.state_belief(observations)
        rates = np.maximum(np.exp(hmm.means + 0.5 * hmm.sigmas**2), 1e3)
        future = belief @ np.linalg.matrix_power(hmm.transition, step + 1)
        if len(future) == 1:
            future = np.ones(1)
        else:
            future = future / (future.sum() + 1e-12)
        sizes = np.asarray(sizes, float)
        return TimeDistribution(
            times=sizes[:, None] * 8.0 / rates[None, :],
            probs=np.tile(future, (len(sizes), 1)),
        )

    return step_model


class TestPerRungRowsAcrossTheHorizon:
    """Per-rung outcome rows get their stall/next-bin geometry in one pass
    over the whole horizon's rows, with each row's own chunk duration.
    Harmonic-mean point masses and the ``throughput`` / ``point_estimate``
    TTPs are held to the reference above, on the same contexts."""

    @pytest.mark.parametrize("n_states", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", sorted(RUNG_COUNTS))
    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_cs2p_mixtures(self, shape, n_states, data):
        context = data.draw(contexts(shape=shape))
        predictor = Cs2pPredictor(DiscreteThroughputHmm(n_states, seed=n_states))
        stepwise = cs2p_stepwise(predictor)
        assert_rows_are_the_stepwise_ones(
            predictor.predict(context, context.lookahead), context, stepwise
        )
        controller = ValueIterationController()
        steps = len(context.lookahead)
        old = reference_scores(controller, context, stepwise, steps)
        assert same_bits(controller._scores(context, predictor, steps), old)


class TestDecideCounters:
    """The counts a merged obs dump carries are the step-wise decide's."""

    @pytest.mark.parametrize("shape", sorted(RUNG_COUNTS))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_one_plan(self, shape, data):
        context = data.draw(contexts(shape=shape))
        horizon = data.draw(st.integers(1, 5))
        ttp, _ = make_fugu_variant("full", seed=1)
        controller = ValueIterationController(horizon=horizon)
        steps = min(horizon, len(context.lookahead))
        ctx = obs.ObsContext()
        with obs.activate(ctx):
            controller.plan(context, ttp)
        assert ctx.metrics.counters == {
            "controller.plans": 1.0,
            "controller.plan_steps": float(steps),
            "ttp.inferences": float(steps),
            "ttp.inference_rows": float(
                sum(len(menu) for menu in context.lookahead[:steps])
            ),
        }
        # One wall-clock span each, around the whole horizon.
        histograms = ctx.metrics.histograms
        assert histograms["profile.controller.plan_s"].count == 1
        assert histograms["profile.ttp.predict_s"].count == 1
