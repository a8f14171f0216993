"""Tests for repro.net.path — paths and the client population model."""

import math

import numpy as np
import pytest

from repro.net.cc.bbr import BbrLike
from repro.net.cc.cubic import CubicLike
from repro.net.link import ConstantLink
from repro.net.path import (
    SLOW_PATH_THRESHOLD_BPS,
    NetworkPath,
    PathSampler,
    PopulationModel,
)


class TestNetworkPath:
    def test_connect_builds_connection(self):
        path = NetworkPath(link=ConstantLink(5e6), base_rtt=0.05)
        conn = path.connect(seed=0)
        assert conn.base_rtt == 0.05
        assert isinstance(conn.cc, BbrLike)

    def test_cubic_path(self):
        path = NetworkPath(link=ConstantLink(5e6), base_rtt=0.05, cc_name="cubic")
        assert isinstance(path.make_cc(), CubicLike)

    def test_invalid_cc_rejected(self):
        with pytest.raises(ValueError):
            NetworkPath(link=ConstantLink(5e6), base_rtt=0.05, cc_name="reno")

    def test_invalid_rtt_rejected(self):
        with pytest.raises(ValueError):
            NetworkPath(link=ConstantLink(5e6), base_rtt=0.0)


class TestPopulationModel:
    def test_slow_path_fraction_calibrated(self):
        # Fig. 8: slow paths (< 6 Mbit/s) are ~16% of viewing time.
        model = PopulationModel()
        rng = np.random.default_rng(0)
        bases = [
            model.sample_path(rng, seed=i).link.base_bps for i in range(3000)
        ]
        slow_fraction = np.mean(np.array(bases) < SLOW_PATH_THRESHOLD_BPS)
        assert 0.10 < slow_fraction < 0.22

    def test_median_throughput(self):
        model = PopulationModel(median_throughput_bps=16e6)
        rng = np.random.default_rng(1)
        bases = [
            model.sample_path(rng, seed=i).link.base_bps for i in range(2000)
        ]
        assert np.median(bases) == pytest.approx(16e6, rel=0.15)

    def test_rtt_negatively_correlated_with_throughput(self):
        # The cold-start signal Fugu exploits (Fig. 9).
        model = PopulationModel()
        rng = np.random.default_rng(2)
        paths = [model.sample_path(rng, seed=i) for i in range(2000)]
        log_tput = np.log([p.link.base_bps for p in paths])
        log_rtt = np.log([p.base_rtt for p in paths])
        corr = np.corrcoef(log_tput, log_rtt)[0, 1]
        assert corr < -0.2

    def test_rtt_within_bounds(self):
        model = PopulationModel()
        rng = np.random.default_rng(3)
        rtts = [model.sample_path(rng).base_rtt for _ in range(500)]
        assert all(0.005 <= r <= 0.8 for r in rtts)

    def test_cubic_fraction(self):
        model = PopulationModel(cubic_fraction=0.5)
        rng = np.random.default_rng(4)
        names = [model.sample_path(rng).cc_name for _ in range(400)]
        fraction = np.mean([n == "cubic" for n in names])
        assert 0.4 < fraction < 0.6

    def test_default_all_bbr(self):
        # The primary analysis is BBR-only (§3.2).
        model = PopulationModel()
        rng = np.random.default_rng(5)
        assert all(
            model.sample_path(rng).cc_name == "bbr" for _ in range(100)
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PopulationModel(median_throughput_bps=0.0)
        with pytest.raises(ValueError):
            PopulationModel(cubic_fraction=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            # NaN used to surface as "base_rtt must be finite".
            "median_throughput_bps",
            "log_sigma",
            # inf used to be clipped to 0.8 s without a word.
            "median_rtt",
            "rtt_log_sigma",
            "rtt_throughput_exponent",
            "cubic_fraction",
            # NaN used to stream NaN transmission times.
            "link_sigma",
            "fade_rate",
        ],
    )
    def test_non_finite_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            PopulationModel(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("median_throughput_bps", -1e6),
            ("median_rtt", 0.0),
            ("log_sigma", -0.1),
            ("rtt_log_sigma", -0.1),
            ("link_sigma", -0.1),
            ("fade_rate", 1.5),
            ("cubic_fraction", -0.1),
        ],
    )
    def test_out_of_range_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            PopulationModel(**{field: value})


class TestPathSampler:
    def test_deterministic_given_seed(self):
        a = PathSampler(seed=7)
        b = PathSampler(seed=7)
        pa, pb = a.next_path(), b.next_path()
        assert pa.base_rtt == pb.base_rtt
        assert pa.link.base_bps == pb.link.base_bps

    def test_paths_vary(self):
        sampler = PathSampler(seed=0)
        rtts = {sampler.next_path().base_rtt for _ in range(20)}
        assert len(rtts) == 20

    def test_custom_factory(self):
        fixed = NetworkPath(link=ConstantLink(1e6), base_rtt=0.1)
        sampler = PathSampler(path_factory=lambda rng: fixed)
        assert sampler.next_path() is fixed
