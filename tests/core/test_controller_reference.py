"""Cross-validation of the vectorized value-iteration controller against a
brute-force reference implementation.

The reference enumerates every trajectory of rung choices over the horizon
and every combination of stochastic outcomes, computing exact expected
cumulative QoE with the same buffer discretization. On small instances the
two must agree on both the chosen action and (approximately) its value.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.base import AbrContext
from repro.core.controller import TimeDistribution, ValueIterationController
from repro.core.qoe import QoeParams, chunk_qoe
from repro.media.chunk import ChunkMenu, EncodedChunk
from repro.media.ladder import PUFFER_LADDER
from repro.net.tcp import TcpInfo


def make_menu(chunk_index, sizes, ssims, duration=2.0):
    versions = [
        EncodedChunk(
            chunk_index=chunk_index,
            profile=PUFFER_LADDER[i],
            size_bytes=size,
            ssim_db=ssim,
            duration=duration,
        )
        for i, (size, ssim) in enumerate(zip(sizes, ssims))
    ]
    return ChunkMenu(versions)


class TabularModel:
    """Explicit per-(step, rung) outcome tables."""

    def __init__(self, tables):
        # tables[step] = (times (n_rungs, k), probs (n_rungs, k)); or every
        # step's times the same one shared (1, k) row.
        self.tables = tables

    def predict(self, context, menus):
        times, probs = zip(*self.tables[: len(menus)])
        return TimeDistribution(
            times=times[0] if len(times[0]) == 1 else np.concatenate(times),
            probs=np.concatenate(probs),
        )


def brute_force_plan(context, model, qoe, horizon, max_buffer, bin_s):
    """Exact expectation by enumerating actions x outcomes recursively."""
    menus = context.lookahead[:horizon]
    # A shared (1, k) row of outcome times stands for every rung's row.
    tables = [
        (np.broadcast_to(times, np.shape(probs)), probs)
        for times, probs in model.tables
    ]

    def snap(buffer_s):
        return np.clip(round(buffer_s / bin_s), 0, round(max_buffer / bin_s)) * bin_s

    def value(step, buffer_s, prev_quality):
        if step == len(menus):
            return 0.0
        menu = menus[step]
        times, probs = tables[step]
        best = -np.inf
        for a, version in enumerate(menu):
            expected = 0.0
            for t, p in zip(times[a], probs[a]):
                reward = chunk_qoe(qoe, version.ssim_db, prev_quality, t, buffer_s)
                next_buffer = snap(
                    min(max(buffer_s - t, 0.0) + menu.duration, max_buffer)
                )
                expected += p * (
                    reward + value(step + 1, next_buffer, version.ssim_db)
                )
            best = max(best, expected)
        return best

    menu0 = menus[0]
    buffer0 = snap(context.buffer_s)
    scores = []
    times, probs = tables[0]
    for a, version in enumerate(menu0):
        expected = 0.0
        for t, p in zip(times[a], probs[a]):
            reward = chunk_qoe(
                qoe, version.ssim_db, context.last_ssim_db, t, buffer0
            )
            next_buffer = snap(
                min(max(buffer0 - t, 0.0) + menu0.duration, max_buffer)
            )
            expected += p * (reward + value(1, next_buffer, version.ssim_db))
        scores.append(expected)
    return int(np.argmax(scores)), scores


def info():
    return TcpInfo(cwnd=10, in_flight=0, min_rtt=0.05, rtt=0.05, delivery_rate=0)


@st.composite
def instance(draw):
    rng_seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(rng_seed)
    horizon = draw(st.integers(1, 3))
    n_rungs = draw(st.integers(2, 4))
    n_outcomes = draw(st.integers(1, 3))
    buffer_s = draw(st.floats(0.0, 14.0))
    last_ssim = draw(st.one_of(st.none(), st.floats(5.0, 18.0)))
    # Outcome times per rung, or one row every rung of every step shares
    # (the TTP's bin centres): the planner broadcasts the latter and
    # memoises its geometry.
    shared = rng.uniform(0.05, 8.0, (1, n_outcomes)) if draw(st.booleans()) else None
    menus, tables = [], []
    for step in range(horizon):
        sizes = np.sort(rng.uniform(5e4, 2e6, n_rungs))
        ssims = np.sort(rng.uniform(6.0, 18.0, n_rungs))
        menus.append(make_menu(step, sizes, ssims))
        if shared is None:
            times = rng.uniform(0.05, 8.0, (n_rungs, n_outcomes))
        else:
            times = shared
        raw = rng.uniform(0.1, 1.0, (n_rungs, n_outcomes))
        probs = raw / raw.sum(axis=1, keepdims=True)
        tables.append((times, probs))
    context = AbrContext(
        lookahead=menus, buffer_s=buffer_s, tcp_info=info(),
        last_ssim_db=last_ssim,
    )
    return context, TabularModel(tables), horizon


class TestAgainstReference:
    @given(instance())
    @settings(max_examples=60, deadline=None)
    def test_vectorized_matches_brute_force(self, params):
        context, model, horizon = params
        qoe = QoeParams()
        controller = ValueIterationController(
            qoe=qoe, horizon=horizon, max_buffer_s=15.0, buffer_bin_s=0.5
        )
        fast_choice = controller.plan(context, model)
        slow_choice, scores = brute_force_plan(
            context, model, qoe, horizon, 15.0, 0.5
        )
        # Either the same action, or an action with (near-)equal value —
        # floating-point ties may break differently.
        assert (
            fast_choice == slow_choice
            or scores[fast_choice] >= scores[slow_choice] - 1e-6
        ), (fast_choice, slow_choice, scores)

    def test_deterministic_two_step_example(self):
        # Hand-checkable instance: one fast cheap rung, one slow rich rung.
        menus = [
            make_menu(0, [1e5, 1e6], [8.0, 16.0]),
            make_menu(1, [1e5, 1e6], [8.0, 16.0]),
        ]
        tables = [
            (np.array([[0.2], [6.0]]), np.array([[1.0], [1.0]])),
            (np.array([[0.2], [6.0]]), np.array([[1.0], [1.0]])),
        ]
        context = AbrContext(
            lookahead=menus, buffer_s=2.0, tcp_info=info(), last_ssim_db=None
        )
        qoe = QoeParams()
        controller = ValueIterationController(qoe=qoe, horizon=2)
        # Rung 1 stalls 4 s (penalty 400); rung 0 is clearly optimal.
        assert controller.plan(context, TabularModel(tables)) == 0

    def test_stochastic_expectation_drives_choice(self):
        # 50/50 between instant and catastrophic: expected stall picks the
        # small chunk even though the mean time looks acceptable.
        menus = [make_menu(0, [1e5, 1e6], [10.0, 16.0])]
        tables = [
            (
                np.array([[0.2, 0.2], [0.2, 30.0]]),
                np.array([[0.5, 0.5], [0.5, 0.5]]),
            )
        ]
        context = AbrContext(
            lookahead=menus, buffer_s=5.0, tcp_info=info(), last_ssim_db=None
        )
        controller = ValueIterationController(horizon=1)
        # Rung 1's expected stall = 0.5 * 25 s * 100 = 1250 penalty.
        assert controller.plan(context, TabularModel(tables)) == 0
