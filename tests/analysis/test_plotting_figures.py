"""Tests for repro.analysis.plotting and repro.analysis.figures."""

import json

import numpy as np
import pytest

from repro.analysis.figures import all_figures
from repro.analysis.plotting import ccdf_plot, scatter_plot
from repro.analysis.stats import ccdf


class TestScatterPlot:
    def test_contains_markers_and_labels(self):
        art = scatter_plot({"fugu": (0.1, 17.0), "bba": (0.2, 16.5)})
        assert "A = fugu" in art
        assert "B = bba" in art
        grid_lines = [l for l in art.splitlines() if l.startswith("|")]
        assert any("A" in l for l in grid_lines)
        assert any("B" in l for l in grid_lines)

    def test_invert_x_flips_positions(self):
        points = {"low": (0.1, 1.0), "high": (0.9, 1.0)}
        normal = scatter_plot(points, width=30, height=5)
        inverted = scatter_plot(points, width=30, height=5, invert_x=True)

        def column_of(art, marker):
            for line in art.splitlines():
                if line.startswith("|") and marker in line:
                    return line.index(marker)
            raise AssertionError(marker)

        assert column_of(normal, "A") < column_of(normal, "B")
        assert column_of(inverted, "A") > column_of(inverted, "B")

    def test_single_point(self):
        art = scatter_plot({"only": (1.0, 1.0)})
        assert "A = only" in art

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scatter_plot({})


class TestCcdfPlot:
    def test_renders_series(self):
        rng = np.random.default_rng(0)
        x1, p1 = ccdf(np.exp(rng.normal(3, 1, 200)))
        x2, p2 = ccdf(np.exp(rng.normal(3.2, 1, 200)))
        art = ccdf_plot({"fugu": (x1, p1), "bba": (x2, p2)})
        assert "a = fugu" in art
        assert "b = bba" in art

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ccdf_plot({})

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError):
            ccdf_plot({"x": ([0.0], [0.5])})


class TestFigureBuilders:
    @pytest.fixture(scope="class")
    def trial(self):
        from repro.abr.pensieve.model import ActorCritic
        from repro.core.ttp import TransmissionTimePredictor
        from repro.experiment.harness import RandomizedTrial, TrialConfig
        from repro.experiment.schemes import primary_experiment_schemes

        specs = primary_experiment_schemes(
            TransmissionTimePredictor(seed=0), ActorCritic(seed=0)
        )
        return RandomizedTrial(specs, TrialConfig(n_sessions=50, seed=3)).run()

    def test_all_figures_structure(self, trial):
        figures = all_figures(trial)
        assert set(figures) == {
            "fig1", "fig4", "fig8", "fig9", "fig10", "figA1",
        }

    def test_all_figures_json_serializable(self, trial):
        json.dumps(all_figures(trial))

    def test_fig1_rows_have_cis(self, trial):
        for row in all_figures(trial)["fig1"].values():
            assert row["stall_ci"][0] <= row["time_stalled_percent"]
            assert row["time_stalled_percent"] <= row["stall_ci"][1]
            assert row["ssim_ci"][0] <= row["mean_ssim_db"] <= row["ssim_ci"][1]

    def test_fig10_curves_are_survival_functions(self, trial):
        for curve in all_figures(trial)["fig10"].values():
            p = curve["survival"]
            assert all(0 < v <= 1 for v in p)
            assert all(a >= b for a, b in zip(p, p[1:]))

    def test_consort_counts_consistent(self, trial):
        data = all_figures(trial)["figA1"]
        total = sum(arm["streams"] for arm in data["arms"].values())
        assert total == data["streams_total"]
