"""Tests for repro.abr.mpc — MPC-HM and RobustMPC-HM."""

import dataclasses

import pytest

from repro.abr.base import AbrContext, ChunkRecord
from repro.abr.mpc import (
    DEFAULT_STARTUP_THROUGHPUT_BPS,
    HarmonicMeanPredictor,
    MpcHm,
    RobustMpcHm,
)
from repro.media.encoder import encode_clip
from repro.media.source import DEFAULT_CHANNELS
from repro.net.tcp import TcpInfo

from tests.core.test_controller_reference import make_menu


def info():
    return TcpInfo(cwnd=10, in_flight=0, min_rtt=0.05, rtt=0.05, delivery_rate=0)


def record(i, size=1_000_000, tx=1.0):
    return ChunkRecord(
        chunk_index=i, rung=5, size_bytes=size, ssim_db=15.0,
        transmission_time=tx, info_at_send=info(), send_time=0.0,
    )


def ctx(buffer_s=10.0, history=None, seed=0, n=8):
    menus = encode_clip(DEFAULT_CHANNELS[0], n, seed=seed)
    return AbrContext(
        lookahead=menus, buffer_s=buffer_s, tcp_info=info(),
        history=history if history is not None else [],
    )


class TestHarmonicMeanPredictor:
    def test_point_mass_distribution(self):
        predictor = HarmonicMeanPredictor()
        context = ctx(history=[record(0)])
        menus = [
            make_menu(0, [1_000_000, 2_000_000], [10.0, 12.0]),
            make_menu(1, [500_000], [9.0]),
        ]
        dist = predictor.predict(context, menus)
        # One row per (step, rung), step-major.
        assert dist.times.shape == (3, 1)
        assert dist.probs.shape == (3, 1)
        # 8 Mbps HM estimate -> 1 MB takes 1 s.
        assert dist.times[:, 0] == pytest.approx([1.0, 2.0, 0.5])

    def test_startup_default_estimate(self):
        predictor = HarmonicMeanPredictor()
        estimate = predictor.throughput_estimate(ctx())
        assert estimate == DEFAULT_STARTUP_THROUGHPUT_BPS

    def test_robust_discount_after_error(self):
        predictor = HarmonicMeanPredictor(robust=True, conservatism=1.0)
        context = ctx(history=[record(0, 1_000_000, 1.0)])  # 8 Mbps
        predictor.predict(context, [make_menu(0, [1_000_000.0], [10.0])])
        # Actual throughput was 4x lower than predicted.
        predictor.observe(record(1, 1_000_000, 4.0))
        discounted = predictor.throughput_estimate(
            ctx(history=[record(0, 1_000_000, 1.0)])
        )
        plain = HarmonicMeanPredictor().throughput_estimate(
            ctx(history=[record(0, 1_000_000, 1.0)])
        )
        assert discounted < plain

    def test_conservatism_scales_discount(self):
        def discounted_estimate(conservatism):
            p = HarmonicMeanPredictor(robust=True, conservatism=conservatism)
            c = ctx(history=[record(0, 1_000_000, 1.0)])
            p.predict(c, [make_menu(0, [1_000_000.0], [10.0])])
            p.observe(record(1, 1_000_000, 2.0))
            return p.throughput_estimate(c)

        assert discounted_estimate(3.0) < discounted_estimate(1.0)

    def test_reset_clears_errors(self):
        predictor = HarmonicMeanPredictor(robust=True)
        context = ctx(history=[record(0)])
        predictor.predict(context, [make_menu(0, [1_000_000.0], [10.0])])
        predictor.observe(record(1, 1_000_000, 10.0))
        predictor.reset()
        assert predictor.throughput_estimate(context) == pytest.approx(
            HarmonicMeanPredictor().throughput_estimate(context)
        )

    def test_invalid_conservatism(self):
        with pytest.raises(ValueError):
            HarmonicMeanPredictor(conservatism=0.0)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("size_bytes", 0.0),
            ("size_bytes", -5.0),
            ("size_bytes", float("nan")),
            ("size_bytes", float("inf")),
            ("transmission_time", float("inf")),
            ("transmission_time", float("nan")),
        ],
    )
    def test_unusable_history_record_rejected_by_name(self, field, bad):
        # A zero throughput divided the harmonic mean by zero; a NaN one
        # turned every score NaN, and argmax streamed rung 0.
        good = record(0)
        broken = dataclasses.replace(record(7), **{field: bad})
        for robust in (False, True):
            predictor = HarmonicMeanPredictor(robust=robust)
            with pytest.raises(ValueError, match=f"{field} of chunk 7"):
                predictor.throughput_estimate(ctx(history=[good, broken]))
            # RobustMPC's error window would have taken it as a sample.
            predictor.predict(ctx(history=[good]), [make_menu(0, [1e6], [9.0])])
            with pytest.raises(ValueError, match=f"{field} of chunk 7"):
                predictor.observe(broken)
            assert len(predictor._errors) == 0

    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf")])
    def test_estimate_parameters_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="conservatism"):
            HarmonicMeanPredictor(robust=True, conservatism=bad)
        with pytest.raises(ValueError, match="startup_throughput_bps"):
            HarmonicMeanPredictor(startup_throughput_bps=bad)


class TestMpcHm:
    def test_high_throughput_history_yields_high_rung(self):
        mpc = MpcHm()
        history = [record(i, 2_000_000, 0.5) for i in range(5)]  # 32 Mbps
        choice = mpc.choose(ctx(buffer_s=12.0, history=history))
        assert choice >= 7

    def test_low_throughput_history_yields_low_rung(self):
        mpc = MpcHm()
        history = [record(i, 100_000, 2.0) for i in range(5)]  # 0.4 Mbps
        choice = mpc.choose(ctx(buffer_s=3.0, history=history))
        assert choice <= 2

    def test_startup_choice_is_conservative(self):
        mpc = MpcHm()
        choice = mpc.choose(ctx(buffer_s=0.0, history=[]))
        assert choice <= 3

    def test_empty_buffer_more_cautious_than_full(self):
        mpc = MpcHm()
        history = [record(i, 1_000_000, 1.0) for i in range(5)]  # 8 Mbps
        low = mpc.choose(ctx(buffer_s=0.5, history=history, seed=4))
        high = mpc.choose(ctx(buffer_s=13.0, history=history, seed=4))
        assert low <= high

    def test_robust_never_higher_than_plain(self):
        plain, robust = MpcHm(), RobustMpcHm()
        history = [
            record(0, 1_000_000, 0.4),
            record(1, 1_000_000, 2.5),
            record(2, 1_000_000, 0.5),
            record(3, 1_000_000, 1.5),
            record(4, 1_000_000, 0.6),
        ]
        # Feed both the same observations so robust accumulates errors.
        for algo in (plain, robust):
            algo.begin_stream()
            for r in history:
                algo.choose(ctx(buffer_s=8.0, history=history[: r.chunk_index]))
                algo.on_chunk_complete(r)
        c_plain = plain.choose(ctx(buffer_s=8.0, history=history, seed=2))
        c_robust = robust.choose(ctx(buffer_s=8.0, history=history, seed=2))
        assert c_robust <= c_plain

    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf")])
    def test_arms_validate_what_they_hand_the_predictor(self, bad):
        # RobustMpcHm used to assign conservatism after building the
        # predictor, past its check: a negative or NaN estimate, NaN scores,
        # and an argmax that streamed rung 0.
        with pytest.raises(ValueError, match="conservatism"):
            RobustMpcHm(conservatism=bad)
        for arm in (MpcHm, RobustMpcHm):
            with pytest.raises(ValueError, match="startup_throughput_bps"):
                arm(startup_throughput_bps=bad)
        assert RobustMpcHm(conservatism=2.0).predictor.conservatism == 2.0
        assert RobustMpcHm().predictor.conservatism == 3.0

    def test_begin_stream_resets_predictor(self):
        mpc = RobustMpcHm()
        mpc.predictor._errors.append(5.0)
        mpc.begin_stream()
        assert len(mpc.predictor._errors) == 0

    def test_scheme_names(self):
        assert MpcHm().name == "mpc_hm"
        assert RobustMpcHm().name == "robust_mpc_hm"
