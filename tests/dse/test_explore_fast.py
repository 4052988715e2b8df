"""Fast-tier coverage of ``run`` and the campaign descriptions.

The heavyweight end-to-end campaigns live behind the ``slow`` marker in
test_runner_campaign.py / test_resume_campaign.py; these tests exercise
the same plumbing at one-to-two-point scale with reduced
Monte-Carlo effort so the tier-1 loop (and its coverage gate) sees the
real code paths.
"""

import json

import pytest

from repro.dse import (
    CampaignRunner,
    CampaignState,
    Job,
    MemoryCampaign,
    ParameterSpace,
    ResultCache,
    RetryPolicy,
    SystemCampaign,
    journal_path,
    memory_point_spec,
    run,
)
from repro.dse.campaign import sweep_points

TINY = dict(num_words=100, error_population=5_000)


def _space():
    return ParameterSpace().add("subarray_rows", [256])


def _cached(directory):
    """A runner whose result cache lives at ``directory``, no journal."""
    return CampaignRunner(cache=ResultCache(str(directory)))


class TestExploreMemoryFast:
    def test_grid_campaign_with_cache(self, tmp_path):
        campaign = MemoryCampaign(_space(), **TINY)
        cold = run(campaign, runner=_cached(tmp_path))
        assert len(cold.outcomes) == 1
        assert cold.cache_hits == 0
        assert len(cold.records()) == 1
        assert cold.errors() == []
        assert cold.infeasible() == 0
        assert len(cold.pareto()) == 1
        warm = run(campaign, runner=_cached(tmp_path))
        assert warm.cache_hits == 1
        assert warm.records() == cold.records()
        assert warm.cache_stats["hits"] == 1

    def test_adaptive_sampler_single_round(self, tmp_path):
        space = ParameterSpace().add("subarray_rows", [128, 256])
        result = run(
            MemoryCampaign(
                space, sampler="surrogate",
                sampler_options=dict(batch=2, rounds=1, seed=0), **TINY,
            ),
            runner=_cached(tmp_path),
        )
        assert result.adaptive is not None
        assert 1 <= len(result.jobs) <= 2
        assert result.adaptive.evaluations == len(result.jobs)

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            MemoryCampaign(_space(), sampler="bayesian", **TINY)

    def test_removed_adaptive_sampler_names_its_successor(self, tmp_path):
        removed = 'sampler "adaptive" was removed; use "surrogate"'
        with pytest.raises(ValueError, match=removed):
            MemoryCampaign(_space(), sampler="adaptive", **TINY)
        with pytest.raises(ValueError, match=removed):
            SystemCampaign(sampler="adaptive")

    def test_surrogate_over_an_axisless_space_still_journals(self, tmp_path):
        # The surrogate proposes nothing, so no batch opens the journal;
        # the campaign must still leave one behind for status/resume.
        campaign_dir = str(tmp_path / "camp")
        result = run(
            MemoryCampaign(ParameterSpace(), sampler="surrogate", **TINY),
            campaign_dir,
        )
        assert result.jobs == [] and result.adaptive.evaluations == 0
        state = CampaignState.load(journal_path(campaign_dir))
        assert state.status()["total"] == 0

    def test_lhs_requires_samples(self):
        with pytest.raises(ValueError, match="requires samples"):
            MemoryCampaign(_space(), sampler="lhs", **TINY)

    def test_retry_policy_threads_through(self, tmp_path):
        result = run(
            MemoryCampaign(_space(), **TINY), runner=_cached(tmp_path),
            retry=RetryPolicy(max_attempts=2),
        )
        assert all(o.ok for o in result.outcomes)
        assert all(o.attempts == 1 for o in result.outcomes)


class TestRunOptions:
    def test_options_that_do_nothing_fail_loudly(self, tmp_path):
        campaign = MemoryCampaign(_space(), **TINY)
        runner = CampaignRunner(workers=1)
        for options in (
            dict(directory=str(tmp_path / "camp")),
            dict(workers=2),
            dict(executor="serial"),
            dict(executor_options={"lease_ttl": 5.0}),
            dict(deadline=60.0),
        ):
            (name,) = options
            with pytest.raises(ValueError, match=name):
                run(campaign, runner=runner, **options)
        with pytest.raises(ValueError, match="need a named executor"):
            run(campaign, executor_options={"lease_ttl": 5.0})
        for flag in ("resume", "retry_failed"):
            with pytest.raises(ValueError, match="need a campaign directory"):
                run(campaign, **{flag: True})
        assert not (tmp_path / "camp").exists()

    def test_benchmark_call_forms_match_run(self, tmp_path):
        """``perfbench`` calls the two adapters in exactly these forms."""
        from repro.dse.campaign import explore_memory, run_memory_campaign
        from repro.dse.checkpoint import JOURNAL_NAME

        space = _space().add("wer_target", [1e-9, 1e-12])
        settings = dict(TINY, fidelity="high", seed=7)

        def journaled(directory, call):
            ticks = []
            cold = call(directory, executor="serial", progress=ticks.append)
            warm = call(directory, resume=True, executor="serial")
            with open(directory / JOURNAL_NAME) as handle:
                key = json.loads(handle.readline())["campaign_key"]
            assert len(ticks) == len(cold.jobs) == 2
            return (
                [job.key for job in cold.jobs], key, cold.records(),
                warm.records(), warm.cache_stats["hit_rate"],
            )

        campaign = MemoryCampaign(space, **settings)
        adapter = journaled(
            tmp_path / "adapter",
            lambda directory, **options: run_memory_campaign(
                space, str(directory), **options, **settings
            ),
        )
        direct = journaled(
            tmp_path / "run",
            lambda directory, **options: run(campaign, str(directory), **options),
        )
        assert adapter == direct
        assert adapter[-1] == 1.0

        serial = explore_memory(
            space, runner=CampaignRunner(workers=1), **settings
        )
        reference = run(campaign, runner=CampaignRunner(workers=1))
        assert [job.key for job in serial.jobs] == adapter[0]
        assert [job.key for job in reference.jobs] == adapter[0]
        assert serial.records() == reference.records() == adapter[2]
        assert serial.cache_stats is reference.cache_stats is None


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
