"""The cell partition: pure, seeded, resumable."""

import numpy as np
import pytest

from repro.edge.cells import (
    Cell,
    EdgeConfig,
    cell_covering,
    cells_for,
    iter_cells,
)


class TestCellPartition:
    def test_partition_is_contiguous_and_pure(self):
        config = EdgeConfig(mean_cell_sessions=3.0, seed=5)
        a = cells_for(config, 100)
        b = cells_for(config, 100)
        assert a == b
        expected_start = 0
        for index, cell in enumerate(a):
            assert cell.cell_id == index
            assert cell.start_session_id == expected_start
            expected_start = cell.end_session_id
        assert a[-1].end_session_id == 100

    def test_truncation_only_affects_last_cell(self):
        config = EdgeConfig(mean_cell_sessions=3.0, seed=5)
        full = cells_for(config, 100)
        short = cells_for(config, 37)
        assert short[:-1] == full[: len(short) - 1]
        assert short[-1].end_session_id == 37

    def test_fixed_dist_is_exact(self):
        config = EdgeConfig(mean_cell_sessions=4.0, cell_size_dist="fixed")
        assert all(c.size == 4 for c in cells_for(config, 40))

    def test_singleton_config(self):
        config = EdgeConfig(
            mean_cell_sessions=1.0, cell_size_dist="fixed"
        )
        cells = cells_for(config, 10)
        assert [c.size for c in cells] == [1] * 10

    def test_geometric_sizes_vary_and_average_near_mean(self):
        config = EdgeConfig(mean_cell_sessions=4.0, seed=0)
        sizes = [config.cell_size(c) for c in range(500)]
        assert min(sizes) >= 1
        assert len(set(sizes)) > 1
        assert 3.0 < sum(sizes) / len(sizes) < 5.0

    def test_cell_covering_matches_partition(self):
        config = EdgeConfig(mean_cell_sessions=3.0, seed=5)
        # Skip the final cell: cells_for truncates it at n_sessions while
        # cell_covering always returns the full seeded cell.
        cells = cells_for(config, 60)[:-1]
        for cell in cells:
            for sid in cell.session_ids:
                assert cell_covering(config, sid) == cell

    def test_iter_cells_is_endless_prefix_of_cells_for(self):
        config = EdgeConfig(mean_cell_sessions=2.5, seed=1)
        stream = iter_cells(config)
        for cell in cells_for(config, 30)[:-1]:
            assert next(stream) == cell


class TestSeededQuantities:
    def test_shared_links_differ_across_cells(self):
        config = EdgeConfig(seed=3)
        caps = {config.shared_link(c).capacity_at(0.0) for c in range(8)}
        assert len(caps) > 1

    def test_shared_link_is_pure_per_cell(self):
        config = EdgeConfig(seed=3)
        a = config.shared_link(2)
        b = config.shared_link(2)
        assert [a.capacity_at(t * 0.5) for t in range(20)] == [
            b.capacity_at(t * 0.5) for t in range(20)
        ]

    def test_popularity_uses_edge_seed(self):
        a = EdgeConfig(seed=0).popularity(0, 16)
        b = EdgeConfig(seed=1).popularity(0, 16)
        assert a.hottest() != b.hottest() or a.rank_of(1) != b.rank_of(1)


class TestValidationAndSerialization:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EdgeConfig(mean_cell_sessions=0.5)
        with pytest.raises(ValueError):
            EdgeConfig(cell_size_dist="poisson")
        with pytest.raises(ValueError):
            EdgeConfig(cell_capacity_bps=0.0)
        with pytest.raises(ValueError):
            EdgeConfig(cache_chunks=-1)
        with pytest.raises(ValueError):
            EdgeConfig(cubic_weight=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        [
            "mean_cell_sessions",
            "cell_capacity_bps",
            "capacity_log_sigma",
            "capacity_sigma",
            "capacity_fade_rate",
            "zipf_alpha",
            "cubic_weight",
        ],
    )
    def test_non_finite_values_are_rejected_by_name(self, field, bad):
        # NaN passes every `x <= 0` / `x < 0` check; the run used to die
        # later, inside the solver, on as_integer_ratio's own message.
        with pytest.raises(ValueError, match=field):
            EdgeConfig(**{field: bad})

    @pytest.mark.parametrize("whole", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_whole_cache_sizes_are_ints(self, whole):
        config = EdgeConfig(cache_chunks=whole)
        assert config.cache_chunks == 3 and type(config.cache_chunks) is int
        assert config.to_dict() == EdgeConfig(cache_chunks=3).to_dict()

    @pytest.mark.parametrize(
        "bad", [2.7, float("nan"), float("inf"), True, "3", None, -1]
    )
    def test_a_cache_size_that_is_not_whole_is_rejected_by_name(self, bad):
        # EdgeCache used to truncate 2.7 to 2 and True to 1, and NaN failed
        # inside it, naming no field.
        with pytest.raises(ValueError, match=r"^EdgeConfig\.cache_chunks must be"):
            EdgeConfig(cache_chunks=bad)

    @pytest.mark.parametrize("whole", [7, 7.0, np.int64(7), np.float64(7.0)])
    def test_whole_seeds_are_ints_with_the_int_fingerprint(self, whole):
        config = EdgeConfig(seed=whole)
        assert config.seed == 7 and type(config.seed) is int
        assert config.to_dict() == EdgeConfig(seed=7).to_dict()
        assert config.shared_link(3).capacity_at(5.0) == EdgeConfig(
            seed=7
        ).shared_link(3).capacity_at(5.0)

    @pytest.mark.parametrize(
        "bad", [2.7, float("nan"), float("inf"), True, "3", None, -1]
    )
    def test_a_seed_that_is_not_whole_is_rejected_by_name(self, bad):
        # A seed of 2.7 was accepted here and truncated to 2 on resume.
        with pytest.raises(ValueError, match=r"^EdgeConfig\.seed must be"):
            EdgeConfig(seed=bad)

    def test_cell_validation(self):
        with pytest.raises(ValueError):
            Cell(cell_id=-1, start_session_id=0, size=1)
        with pytest.raises(ValueError):
            Cell(cell_id=0, start_session_id=0, size=0)
        cell = Cell(cell_id=0, start_session_id=5, size=3)
        assert list(cell.session_ids) == [5, 6, 7]
