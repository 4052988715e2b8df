"""End-to-end resumable campaigns over the real evaluators.

The fast checkpoint mechanics live in test_checkpoint.py; these suites
pay for real VAET-STT / MAGPIE evaluations, so they carry the ``slow``
marker.
"""

import pytest

from repro.dse import (
    CampaignRunner,
    CampaignState,
    MemoryCampaign,
    ParameterSpace,
    ResultCache,
    SystemCampaign,
    run,
)
from repro.dse.checkpoint import JOURNAL_NAME
from repro.magpie.scenarios import Scenario

SETTINGS = dict(num_words=200, error_population=10_000)


def _space():
    return ParameterSpace().add("subarray_rows", [128, 256]).add(
        "wer_target", [1e-9, 1e-12]
    )


def _campaign(**fields):
    return MemoryCampaign(_space(), **SETTINGS, **fields)


class Killed(Exception):
    """Stands in for a SIGKILL mid-campaign."""


@pytest.mark.slow
class TestMemoryCampaignResume:
    def test_kill_resume_identical_to_uninterrupted(self, tmp_path):
        reference = run(_campaign(), str(tmp_path / "ref"))
        assert len(reference.outcomes) == 4

        def bomb(event):
            if event.done == 2:
                raise Killed()

        campaign_dir = str(tmp_path / "killed")
        with pytest.raises(Killed):
            run(_campaign(), campaign_dir, progress=bomb)

        journal = CampaignState.load(tmp_path / "killed" / JOURNAL_NAME)
        finished = set(journal.completed)
        assert 1 <= journal.done < 4

        resumed = run(_campaign(), campaign_dir, resume=True)
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
        campaign_dir = str(tmp_path / "camp")
        first = run(_campaign(), campaign_dir)
        again = run(_campaign(), campaign_dir, resume=True)
        assert all(o.from_cache for o in again.outcomes)
        assert again.records() == first.records()

    def test_resume_rejects_changed_settings(self, tmp_path):
        campaign_dir = str(tmp_path / "camp")
        run(_campaign(), campaign_dir)
        changed = MemoryCampaign(_space(), num_words=300, error_population=10_000)
        with pytest.raises(ValueError, match="different campaign"):
            run(changed, campaign_dir, resume=True)

    def test_adaptive_campaign_resumes_from_cache(self, tmp_path):
        space = ParameterSpace().add(
            "subarray_rows", [128, 256, 512]
        ).add("wer_target", [1e-9, 1e-12, 1e-15])
        campaign_dir = str(tmp_path / "surrogate")
        campaign = MemoryCampaign(
            space, sampler="surrogate",
            sampler_options=dict(batch=4, rounds=2, seed=0), **SETTINGS,
        )
        first = run(campaign, campaign_dir)
        assert first.adaptive is not None
        assert first.adaptive.evaluations == len(first.jobs)
        again = run(campaign, campaign_dir, resume=True)
        # Deterministic proposals: the replay walks the same points, all hits.
        assert [j.key for j in again.jobs] == [j.key for j in first.jobs]
        assert all(o.from_cache for o in again.outcomes)
        assert again.records() == first.records()


@pytest.mark.slow
class TestSystemCampaignResume:
    def test_kill_resume_matches_uninterrupted(self, tmp_path):
        campaign = SystemCampaign(
            workloads=["bodytrack"],
            scenarios=[Scenario.FULL_SRAM, Scenario.FULL_L2_STT],
        )
        reference = run(campaign, str(tmp_path / "ref"))
        assert len(reference.results) == 2

        def bomb(event):
            if event.done == 1:
                raise Killed()

        campaign_dir = str(tmp_path / "killed")
        with pytest.raises(Killed):
            run(campaign, campaign_dir, progress=bomb)
        assert CampaignState.load(tmp_path / "killed" / JOURNAL_NAME).done >= 0

        resumed = run(campaign, campaign_dir, resume=True)
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
        campaign = MemoryCampaign(
            space, sampler="surrogate",
            sampler_options=dict(batch=4, rounds=2, seed=0), **SETTINGS,
        )
        result = run(campaign, runner=CampaignRunner(cache=ResultCache(str(tmp_path))))
        assert result.adaptive is not None
        assert 0 < len(result.jobs) < space.size
        assert len(result.records()) > 0
        # The sampler's winner is the best EDP point it evaluated.
        best = min(row["edp_proxy"] for row in result.records())
        assert result.adaptive.best_score == pytest.approx(best)
