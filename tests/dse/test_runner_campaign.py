"""Tests for the campaign runner and the cross-layer entry points."""

import pytest

from repro.dse import (
    CampaignRunner,
    Job,
    MemoryCampaign,
    ParameterSpace,
    ResultCache,
    SystemCampaign,
    get_target,
    register_target,
    run,
)
from repro.magpie.scenarios import Scenario


def _echo(spec, seed):
    return {"value": spec["x"] * 2, "seed": seed}


def _fragile(spec, seed):
    if spec["x"] == 2:
        raise ValueError("point 2 is broken")
    return {"value": spec["x"]}


@pytest.fixture(autouse=True)
def _targets():
    register_target("test-echo", _echo)
    register_target("test-fragile", _fragile)


class TestRunner:
    def test_serial_run_order_and_results(self):
        jobs = [Job("test-echo", {"x": i}) for i in range(4)]
        results = CampaignRunner(workers=1).run(jobs)
        assert [r.result["value"] for r in results] == [0, 2, 4, 6]
        assert all(r.ok and not r.from_cache for r in results)

    def test_failure_isolation(self):
        jobs = [Job("test-fragile", {"x": i}) for i in range(4)]
        results = CampaignRunner(workers=1).run(jobs)
        assert [r.ok for r in results] == [True, True, False, True]
        assert "point 2 is broken" in results[2].error
        assert results[2].result is None

    def test_duplicate_jobs_evaluate_once(self):
        calls = []

        def counting(spec, seed):
            calls.append(spec["x"])
            return {"v": spec["x"]}

        register_target("test-count", counting)
        jobs = [Job("test-count", {"x": 1})] * 3
        results = CampaignRunner(workers=1).run(jobs)
        assert len(calls) == 1
        assert all(r.ok and r.result == {"v": 1} for r in results)

    def test_cache_hits_skip_evaluation(self, tmp_path):
        calls = []

        def counting(spec, seed):
            calls.append(spec["x"])
            return {"v": spec["x"]}

        register_target("test-count2", counting)
        cache = ResultCache(str(tmp_path))
        jobs = [Job("test-count2", {"x": i}) for i in range(3)]
        first = CampaignRunner(workers=1, cache=cache).run(jobs)
        second = CampaignRunner(workers=1, cache=cache).run(jobs)
        assert len(calls) == 3
        assert all(r.from_cache for r in second)
        assert [r.result for r in first] == [r.result for r in second]

    def test_errors_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        jobs = [Job("test-fragile", {"x": 2})]
        CampaignRunner(workers=1, cache=cache).run(jobs)
        assert len(cache) == 0

    def test_content_seed_passed_to_target(self):
        job = Job("test-echo", {"x": 5})
        (result,) = CampaignRunner(workers=1).run([job])
        assert result.result["seed"] == job.seed

    def test_unknown_target(self):
        with pytest.raises(KeyError):
            get_target("no-such-target")

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            CampaignRunner(workers=0)


@pytest.mark.slow
class TestMemoryCampaign:
    def test_small_grid_cold_then_warm(self, tmp_path):
        space = ParameterSpace().add("subarray_rows", [128, 256]).add(
            "wer_target", [1e-9, 1e-12]
        )
        campaign = MemoryCampaign(space, num_words=200, error_population=10_000)
        cold = run(campaign, runner=CampaignRunner(cache=ResultCache(str(tmp_path))))
        warm = run(campaign, runner=CampaignRunner(cache=ResultCache(str(tmp_path))))
        assert len(cold.outcomes) == 4
        assert cold.cache_hits == 0
        assert warm.cache_hits == 4
        # Warm results are bit-identical to the cold run.
        assert cold.records() == warm.records()

    def test_serial_equals_parallel(self):
        space = ParameterSpace().add("subarray_rows", [128, 256])
        campaign = MemoryCampaign(space, num_words=200, error_population=10_000)
        a = run(campaign, workers=1)
        b = run(campaign, workers=2)
        assert a.records() == b.records()

    def test_invalid_point_is_isolated(self):
        space = ParameterSpace().add("subarray_rows", [256, 2048])
        result = run(
            MemoryCampaign(space, num_words=200, error_population=10_000),
            workers=1,
        )
        assert len(result.errors()) == 1
        assert "subarray_rows" in result.errors()[0].error
        assert len(result.records()) == 1

    def test_unknown_axis_rejected_at_build(self):
        space = ParameterSpace().add("warp_factor", [9])
        with pytest.raises(ValueError):
            MemoryCampaign(space, num_words=200, error_population=10_000)

    def test_records_carry_objectives_and_pareto_is_subset(self):
        space = ParameterSpace().add("subarray_rows", [128, 256])
        result = run(
            MemoryCampaign(space, num_words=200, error_population=10_000),
            workers=1,
        )
        records = result.records()
        for row in records:
            for key in ("write_latency", "write_energy", "area", "edp_proxy"):
                assert key in row
        front = result.pareto()
        assert 1 <= len(front) <= len(records)

    def test_wer_axis_tightens_latency(self):
        space = ParameterSpace().add("wer_target", [1e-6, 1e-15])
        result = run(
            MemoryCampaign(space, num_words=200, error_population=10_000),
            workers=1,
        )
        by_target = {row["wer_target"]: row for row in result.records()}
        assert by_target[1e-15]["write_latency"] > by_target[1e-6]["write_latency"]


@pytest.mark.slow
class TestSystemCampaign:
    def test_grid_matches_flow_run(self, tmp_path):
        campaign = SystemCampaign(
            workloads=["bodytrack"],
            scenarios=[Scenario.FULL_SRAM, Scenario.FULL_L2_STT],
        )
        result = run(campaign, runner=CampaignRunner(cache=ResultCache(str(tmp_path))))
        assert len(result.results) == 2
        records = result.records()
        assert {row["scenario"] for row in records} == {
            "Full-SRAM",
            "Full-L2-STT-MRAM",
        }
        warm = run(campaign, runner=CampaignRunner(cache=ResultCache(str(tmp_path))))
        assert sorted(map(str, warm.records())) == sorted(map(str, records))
        assert warm.cache_stats["hits"] == 2

    def test_stt_beats_sram_on_energy(self):
        result = run(
            SystemCampaign(
                workloads=["bodytrack"],
                scenarios=[Scenario.FULL_SRAM, Scenario.FULL_L2_STT],
            ),
            workers=1,
        )
        rows = {row["scenario"]: row for row in result.records()}
        assert rows["Full-L2-STT-MRAM"]["energy"] < rows["Full-SRAM"]["energy"]
