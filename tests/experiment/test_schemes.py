"""Tests for repro.experiment.schemes — the Fig. 5 registry."""

import argparse

import pytest

from repro.abr.pensieve.model import ActorCritic
from repro.core.ttp import TransmissionTimePredictor
from repro.emulation.env import train_fugu_in_emulation
from repro.experiment.schemes import (
    CLASSICAL_SCHEMES,
    SchemeSpec,
    primary_experiment_schemes,
    scheme_table,
)


@pytest.fixture(scope="module")
def specs():
    return primary_experiment_schemes(
        TransmissionTimePredictor(seed=0), ActorCritic(seed=0)
    )


class TestRegistry:
    def test_five_primary_schemes(self, specs):
        assert [s.name for s in specs] == [
            "bba", "mpc_hm", "robust_mpc_hm", "pensieve", "fugu",
        ]

    def test_factories_build_named_algorithms(self, specs):
        for spec in specs:
            algorithm = spec.build()
            assert algorithm.name == spec.name

    def test_fig5_feature_matrix(self, specs):
        table = scheme_table(specs)
        assert table["bba"]["predictor"] == "n/a"
        assert table["mpc_hm"]["control"] == "classical (MPC)"
        assert table["pensieve"]["how_trained"] == (
            "reinforcement learning in simulation"
        )
        assert table["fugu"]["how_trained"] == "supervised learning in situ"
        assert table["fugu"]["predictor"] == "learned (DNN)"

    def test_ssim_objective_shared_by_mpc_family(self, specs):
        table = scheme_table(specs)
        goal = "+SSIM, -stalls, -dSSIM"
        assert table["mpc_hm"]["optimization_goal"] == goal
        assert table["robust_mpc_hm"]["optimization_goal"] == goal
        assert table["fugu"]["optimization_goal"] == goal
        # Pensieve optimizes bitrate, not SSIM (§3.3).
        assert "bitrate" in table["pensieve"]["optimization_goal"]

    def test_classical_arms_are_defined_once(self, specs):
        # Fig. 5's classical rows, the fleet CLI's schemes and the mini-trial
        # the obs and sanitize commands run are the same definitions.
        from repro.__main__ import _obs_collect_specs
        from repro.fleet_cli import fleet_specs

        assert specs[:3] == [
            CLASSICAL_SCHEMES[name]
            for name in ("bba", "mpc_hm", "robust_mpc_hm")
        ]
        assert fleet_specs(list(CLASSICAL_SCHEMES)) == list(
            CLASSICAL_SCHEMES.values()
        )
        assert _obs_collect_specs() == specs[:2]
        for name, spec in CLASSICAL_SCHEMES.items():
            assert spec.build().name == name
        with pytest.raises(
            argparse.ArgumentTypeError, match="unknown scheme 'nope'"
        ):
            fleet_specs(["bba", "nope"])

    def test_emulation_arm_optional(self):
        specs = primary_experiment_schemes(
            TransmissionTimePredictor(seed=0),
            ActorCritic(seed=0),
            emulation_fugu_predictor=TransmissionTimePredictor(seed=1),
        )
        assert specs[-1].name == "fugu_emulation"
        assert specs[-1].build().name == "fugu_emulation"

    def test_mismatched_factory_name_detected(self):
        from repro.abr.bba import BBA

        spec = SchemeSpec(
            name="not_bba", control="x", predictor="x",
            optimization_goal="x", how_trained="x", factory=BBA,
        )
        with pytest.raises(ValueError, match="built"):
            spec.build()
