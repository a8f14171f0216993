"""Scheme registry — the Fig. 5 feature matrix, executable.

Each :class:`SchemeSpec` records the distinguishing features the paper
tabulates (control type, predictor type, optimization goal, training mode)
and knows how to construct a fresh instance of the algorithm. ``expt_id``
assignment and blinding live in the harness; the registry is the ground
truth for which schemes exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.abr.base import AbrAlgorithm
from repro.abr.bba import BBA
from repro.abr.bola import Bola
from repro.abr.mpc import MpcHm, RobustMpcHm
from repro.abr.pensieve import ActorCritic, Pensieve
from repro.core.fugu import Fugu
from repro.core.ttp import TransmissionTimePredictor


@dataclass(frozen=True)
class SchemeSpec:
    """One row of the Fig. 5 table."""

    name: str
    control: str
    predictor: str
    optimization_goal: str
    how_trained: str
    factory: Callable[[], AbrAlgorithm]

    def build(self) -> AbrAlgorithm:
        algorithm = self.factory()
        if algorithm.name != self.name:
            raise ValueError(
                f"factory for {self.name!r} built {algorithm.name!r}"
            )
        return algorithm


CLASSICAL_SCHEMES: Dict[str, SchemeSpec] = {
    spec.name: spec
    for spec in (
        SchemeSpec(
            name="bba",
            control="classical (prop. control)",
            predictor="n/a",
            optimization_goal="+SSIM s.t. bitrate < limit",
            how_trained="n/a",
            factory=BBA,
        ),
        SchemeSpec(
            name="mpc_hm",
            control="classical (MPC)",
            predictor="classical (HM)",
            optimization_goal="+SSIM, -stalls, -dSSIM",
            how_trained="n/a",
            factory=MpcHm,
        ),
        SchemeSpec(
            name="robust_mpc_hm",
            control="classical (robust MPC)",
            predictor="classical (HM)",
            optimization_goal="+SSIM, -stalls, -dSSIM",
            how_trained="n/a",
            factory=RobustMpcHm,
        ),
        SchemeSpec(
            name="bola",
            control="classical (Lyapunov)",
            predictor="n/a",
            optimization_goal="+utility (Lyapunov)",
            how_trained="n/a",
            factory=Bola,
        ),
    )
}
"""The untrained arms, by name: Fig. 5's three classical schemes and BOLA.
They need no model, so fleet runs and mini-trials measure the deployment
machinery with them."""


def primary_experiment_schemes(
    fugu_predictor: TransmissionTimePredictor,
    pensieve_model: ActorCritic,
    emulation_fugu_predictor: Optional[TransmissionTimePredictor] = None,
) -> List[SchemeSpec]:
    """The five primary-experiment schemes (plus, optionally, the
    emulation-trained Fugu arm of Fig. 11), as specified in Fig. 5."""
    specs = [
        CLASSICAL_SCHEMES["bba"],
        CLASSICAL_SCHEMES["mpc_hm"],
        CLASSICAL_SCHEMES["robust_mpc_hm"],
        SchemeSpec(
            name="pensieve",
            control="learned (DNN)",
            predictor="n/a",
            optimization_goal="+bitrate, -stalls, -dbitrate",
            how_trained="reinforcement learning in simulation",
            factory=lambda: Pensieve(pensieve_model),
        ),
        SchemeSpec(
            name="fugu",
            control="classical (MPC)",
            predictor="learned (DNN)",
            optimization_goal="+SSIM, -stalls, -dSSIM",
            how_trained="supervised learning in situ",
            factory=lambda: Fugu(fugu_predictor),
        ),
    ]
    if emulation_fugu_predictor is not None:
        specs.append(
            SchemeSpec(
                name="fugu_emulation",
                control="classical (MPC)",
                predictor="learned (DNN)",
                optimization_goal="+SSIM, -stalls, -dSSIM",
                how_trained="supervised learning in emulation",
                factory=lambda: Fugu(
                    emulation_fugu_predictor, name="fugu_emulation"
                ),
            )
        )
    return specs


def generation_scheme_spec(
    name: str, predictor: TransmissionTimePredictor
) -> SchemeSpec:
    """One continually-retrained TTP generation as a fresh RCT arm.

    The continual retraining service (:mod:`repro.fleet.retrain`) enrolls
    every committed model generation under its own arm name, so the RCT
    compares generations against each other and against the classical
    baselines — extending the Fig. 9 cold-start plot into a continuous
    curve.  Each build gets a *copy* of the frozen generation predictor:
    arm instances never share mutable model state.
    """
    return SchemeSpec(
        name=name,
        control="classical (MPC)",
        predictor="learned (DNN)",
        optimization_goal="+SSIM, -stalls, -dSSIM",
        how_trained="continual supervised learning in situ",
        factory=lambda: Fugu(predictor.copy(), name=name),
    )


def scheme_table(specs: List[SchemeSpec]) -> Dict[str, Dict[str, str]]:
    """Render the registry as the Fig. 5 table (name -> feature columns)."""
    return {
        spec.name: {
            "control": spec.control,
            "predictor": spec.predictor,
            "optimization_goal": spec.optimization_goal,
            "how_trained": spec.how_trained,
        }
        for spec in specs
    }
