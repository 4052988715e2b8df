"""End-to-end resumable campaigns over the real evaluators.

The fast checkpoint mechanics live in test_checkpoint.py; these suites
pay for real VAET-STT / MAGPIE evaluations, so they carry the ``slow``
marker.
"""

import pytest

from repro.dse import (
    CampaignState,
    ParameterSpace,
    run_memory_campaign,
    run_system_campaign,
)
from repro.dse.checkpoint import JOURNAL_NAME
from repro.magpie.scenarios import Scenario

SETTINGS = dict(num_words=200, error_population=10_000)


def _space():
    return ParameterSpace().add("subarray_rows", [128, 256]).add(
        "wer_target", [1e-9, 1e-12]
    )


class Killed(Exception):
    """Stands in for a SIGKILL mid-campaign."""


@pytest.mark.slow
class TestMemoryCampaignResume:
    def test_kill_resume_identical_to_uninterrupted(self, tmp_path):
        space = _space()
        reference = run_memory_campaign(
            space, str(tmp_path / "ref"), **SETTINGS
        )
        assert len(reference.outcomes) == 4

        def bomb(event):
            if event.done == 2:
                raise Killed()

        campaign_dir = str(tmp_path / "killed")
        with pytest.raises(Killed):
            run_memory_campaign(space, campaign_dir, progress=bomb, **SETTINGS)

        journal = CampaignState.load(tmp_path / "killed" / JOURNAL_NAME)
        finished = set(journal.completed)
        assert 1 <= journal.done < 4

        resumed = run_memory_campaign(
            space, campaign_dir, resume=True, **SETTINGS
        )
        # Zero re-evaluation: every point that finished before the kill
        # comes back as a cache hit.
        for job, outcome in zip(resumed.jobs, resumed.outcomes):
            if job.key in finished:
                assert outcome.from_cache
        assert resumed.cache_stats["hits"] >= len(finished)
        # And the final records are identical to the uninterrupted run.
        assert resumed.records() == reference.records()
        assert CampaignState.load(tmp_path / "killed" / JOURNAL_NAME).done == 4

    def test_resume_completed_campaign_is_pure_cache(self, tmp_path):
        space = _space()
        campaign_dir = str(tmp_path / "camp")
        first = run_memory_campaign(space, campaign_dir, **SETTINGS)
        again = run_memory_campaign(space, campaign_dir, resume=True, **SETTINGS)
        assert all(o.from_cache for o in again.outcomes)
        assert again.records() == first.records()

    def test_resume_rejects_changed_settings(self, tmp_path):
        space = _space()
        campaign_dir = str(tmp_path / "camp")
        run_memory_campaign(space, campaign_dir, **SETTINGS)
        with pytest.raises(ValueError, match="different campaign"):
            run_memory_campaign(
                space, campaign_dir, resume=True,
                num_words=300, error_population=10_000,
            )

    def test_adaptive_campaign_resumes_from_cache(self, tmp_path):
        space = ParameterSpace().add(
            "subarray_rows", [128, 256, 512]
        ).add("wer_target", [1e-9, 1e-12, 1e-15])
        campaign_dir = str(tmp_path / "surrogate")
        options = dict(batch=4, rounds=2, seed=0)
        first = run_memory_campaign(
            space, campaign_dir, sampler="surrogate",
            sampler_options=options, **SETTINGS,
        )
        assert first.adaptive is not None
        assert first.adaptive.evaluations == len(first.jobs)
        again = run_memory_campaign(
            space, campaign_dir, resume=True, sampler="surrogate",
            sampler_options=options, **SETTINGS,
        )
        # Deterministic proposals: the replay walks the same points, all hits.
        assert [j.key for j in again.jobs] == [j.key for j in first.jobs]
        assert all(o.from_cache for o in again.outcomes)
        assert again.records() == first.records()


@pytest.mark.slow
class TestSystemCampaignResume:
    def test_kill_resume_matches_uninterrupted(self, tmp_path):
        kwargs = dict(
            workloads=["bodytrack"],
            scenarios=[Scenario.FULL_SRAM, Scenario.FULL_L2_STT],
        )
        reference = run_system_campaign(str(tmp_path / "ref"), **kwargs)
        assert len(reference.results) == 2

        def bomb(event):
            if event.done == 1:
                raise Killed()

        campaign_dir = str(tmp_path / "killed")
        with pytest.raises(Killed):
            run_system_campaign(campaign_dir, progress=bomb, **kwargs)
        assert CampaignState.load(tmp_path / "killed" / JOURNAL_NAME).done >= 0

        resumed = run_system_campaign(campaign_dir, resume=True, **kwargs)
        assert sorted(map(str, resumed.records())) == sorted(
            map(str, reference.records())
        )
        assert resumed.cache_stats["hits"] >= 1


@pytest.mark.slow
class TestAdaptiveExploreMemory:
    def test_adaptive_explores_fewer_points_than_grid(self, tmp_path):
        space = ParameterSpace().add(
            "subarray_rows", [128, 256, 512]
        ).add("word_bits", [128, 256]).add("wer_target", [1e-9, 1e-12])
        from repro.dse import explore_memory

        result = explore_memory(
            space, sampler="surrogate",
            sampler_options=dict(batch=4, rounds=2, seed=0),
            cache_dir=str(tmp_path), **SETTINGS,
        )
        assert result.adaptive is not None
        assert 0 < len(result.jobs) < space.size
        assert len(result.records()) > 0
        # The sampler's winner is the best EDP point it evaluated.
        best = min(row["edp_proxy"] for row in result.records())
        assert result.adaptive.best_score == pytest.approx(best)
