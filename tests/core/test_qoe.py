"""Tests for repro.core.qoe — the Eq. 1 objective."""

import pytest

from repro.core.qoe import DEFAULT_QOE, QoeParams, chunk_qoe


class TestQoeParams:
    def test_paper_defaults(self):
        # λ = 1 and µ = 100 (§4.5).
        assert DEFAULT_QOE.variation_weight == 1.0
        assert DEFAULT_QOE.stall_weight == 100.0

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            QoeParams(variation_weight=-1.0)
        with pytest.raises(ValueError):
            QoeParams(stall_weight=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["quality_weight", "variation_weight", "stall_weight"]
    )
    def test_non_finite_weights_rejected(self, field, bad):
        # NaN is not < 0: it used to pass, and the planner's argmax over
        # all-NaN scores then streamed rung 0.
        with pytest.raises(ValueError, match="finite"):
            QoeParams(**{field: bad})


class TestChunkQoe:
    def test_quality_only_when_no_stall_no_change(self):
        value = chunk_qoe(DEFAULT_QOE, 15.0, 15.0, 1.0, 10.0)
        assert value == pytest.approx(15.0)

    def test_variation_penalty_symmetric(self):
        up = chunk_qoe(DEFAULT_QOE, 16.0, 14.0, 1.0, 10.0)
        down = chunk_qoe(DEFAULT_QOE, 14.0, 16.0, 1.0, 10.0)
        assert up == pytest.approx(16.0 - 2.0)
        assert down == pytest.approx(14.0 - 2.0)

    def test_stall_penalty(self):
        # 2.5 s transmission against a 1.5 s buffer: 1 s stall x µ=100.
        value = chunk_qoe(DEFAULT_QOE, 15.0, 15.0, 2.5, 1.5)
        assert value == pytest.approx(15.0 - 100.0)

    def test_no_stall_when_buffer_covers_transmission(self):
        value = chunk_qoe(DEFAULT_QOE, 15.0, 15.0, 2.0, 2.0)
        assert value == pytest.approx(15.0)

    def test_first_chunk_skips_variation(self):
        value = chunk_qoe(DEFAULT_QOE, 15.0, None, 1.0, 10.0)
        assert value == pytest.approx(15.0)

    def test_custom_weights(self):
        params = QoeParams(variation_weight=2.0, stall_weight=10.0)
        value = chunk_qoe(params, 10.0, 12.0, 3.0, 1.0)
        assert value == pytest.approx(10.0 - 2.0 * 2.0 - 10.0 * 2.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            chunk_qoe(DEFAULT_QOE, 15.0, None, -1.0, 0.0)
