"""Fast-tier coverage of the campaign entry points.

The heavyweight end-to-end campaigns live behind the ``slow`` marker in
test_runner_campaign.py / test_resume_campaign.py; these tests exercise
the same entry-point plumbing at one-to-two-point scale with reduced
Monte-Carlo effort so the tier-1 loop (and its coverage gate) sees the
real code paths.
"""

import pytest

from repro.dse import (
    CampaignRunner,
    CampaignState,
    Job,
    ParameterSpace,
    RetryPolicy,
    explore_memory,
    explore_system,
    journal_path,
    memory_point_spec,
    run_memory_campaign,
)
from repro.dse.campaign import sweep_points

TINY = dict(num_words=100, error_population=5_000)


def _space():
    return ParameterSpace().add("subarray_rows", [256])


class TestExploreMemoryFast:
    def test_grid_campaign_with_cache(self, tmp_path):
        cold = explore_memory(_space(), cache_dir=str(tmp_path), **TINY)
        assert len(cold.outcomes) == 1
        assert cold.cache_hits == 0
        assert len(cold.records()) == 1
        assert cold.errors() == []
        assert cold.infeasible() == 0
        assert len(cold.pareto()) == 1
        warm = explore_memory(_space(), cache_dir=str(tmp_path), **TINY)
        assert warm.cache_hits == 1
        assert warm.records() == cold.records()
        assert warm.cache_stats["hits"] == 1

    def test_adaptive_sampler_single_round(self, tmp_path):
        space = ParameterSpace().add("subarray_rows", [128, 256])
        result = explore_memory(
            space, sampler="surrogate",
            sampler_options=dict(batch=2, rounds=1, seed=0),
            cache_dir=str(tmp_path), **TINY,
        )
        assert result.adaptive is not None
        assert 1 <= len(result.jobs) <= 2
        assert result.adaptive.evaluations == len(result.jobs)

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            explore_memory(_space(), sampler="bayesian", **TINY)

    def test_removed_adaptive_sampler_names_its_successor(self, tmp_path):
        removed = 'sampler "adaptive" was removed; use "surrogate"'
        with pytest.raises(ValueError, match=removed):
            explore_memory(_space(), sampler="adaptive", **TINY)
        with pytest.raises(ValueError, match=removed):
            run_memory_campaign(
                _space(), str(tmp_path / "camp"), sampler="adaptive", **TINY
            )
        with pytest.raises(ValueError, match=removed):
            explore_system(sampler="adaptive")
        assert not (tmp_path / "camp").exists()

    def test_surrogate_over_an_axisless_space_still_journals(self, tmp_path):
        # The surrogate proposes nothing, so no batch opens the journal;
        # the campaign must still leave one behind for status/resume.
        campaign_dir = str(tmp_path / "camp")
        result = run_memory_campaign(
            ParameterSpace(), campaign_dir, sampler="surrogate", **TINY
        )
        assert result.jobs == [] and result.adaptive.evaluations == 0
        state = CampaignState.load(journal_path(campaign_dir))
        assert state.status()["total"] == 0

    def test_lhs_requires_samples(self):
        with pytest.raises(ValueError, match="requires samples"):
            explore_memory(_space(), sampler="lhs", **TINY)

    def test_retry_policy_threads_through(self, tmp_path):
        result = explore_memory(
            _space(), cache_dir=str(tmp_path),
            retry=RetryPolicy(max_attempts=2), **TINY,
        )
        assert all(o.ok for o in result.outcomes)
        assert all(o.attempts == 1 for o in result.outcomes)


class TestSweepCompatibilityPath:
    def test_memory_point_spec_and_sweep_points(self):
        from repro.nvsim.config import PAPER_ARRAY
        from repro.pdk.kit import ProcessDesignKit
        from repro.vaet.explorer import DesignConstraints, DesignSpaceExplorer

        explorer = DesignSpaceExplorer(
            ProcessDesignKit.for_node(45), PAPER_ARRAY,
            DesignConstraints(), num_words=100, error_population=5_000,
        )
        spec = memory_point_spec(explorer, PAPER_ARRAY)
        assert spec["seed"] == 2018
        assert spec["node_nm"] == 45
        job = Job("vaet-memory", spec)
        points = sweep_points([job], CampaignRunner(workers=1))
        assert len(points) == 1
        assert points[0].config.to_dict() == PAPER_ARRAY.to_dict()
