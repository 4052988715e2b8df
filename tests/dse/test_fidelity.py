"""Multi-fidelity ladder: screening, promotion, front fidelity, resume.

Fast suites exercise the lowfi evaluator, job twinning and promotion
logic on synthetic data; the ``slow`` suites pay for real evaluations
to pin the acceptance property — a ladder campaign reproduces the
full-fidelity Pareto front while invoking the expensive Monte-Carlo
evaluator on strictly fewer points.
"""

import json
import math

import pytest

from repro.dse import (
    FIDELITY_MODES,
    LOWFI_MEMORY_TARGET,
    Job,
    JobResult,
    MemoryCampaign,
    ParameterSpace,
    evaluate_memory_lowfi,
    lowfi_twin,
    promotion_indices,
    run,
    run_ladder,
)

TINY = dict(num_words=100, error_population=5_000)

OBJECTIVES = ("write_latency", "write_energy")


def _space():
    return ParameterSpace().add("subarray_rows", [128, 256, 512]).add(
        "wer_target", [1e-9, 1e-12]
    )


def _lowfi_spec(subarray_rows=128):
    from repro.nvsim.config import PAPER_ARRAY

    config = PAPER_ARRAY.to_dict()
    config["subarray_rows"] = subarray_rows
    return {"node_nm": 45, "config": config}


class TestLowfiEvaluator:
    def test_result_is_design_point_shaped(self):
        result = evaluate_memory_lowfi(_lowfi_spec(), seed=0)
        assert result["feasible"] is True
        assert result["fidelity"] == "low"
        point = result["point"]
        for field in (
            "config", "write_latency", "read_latency",
            "write_energy", "read_energy", "area",
        ):
            assert field in point
        assert point["ecc_bits"] == 0
        assert all(
            math.isfinite(point[k]) and point[k] > 0
            for k in ("write_latency", "write_energy", "area")
        )

    def test_deterministic_and_seed_free(self):
        first = evaluate_memory_lowfi(_lowfi_spec(), seed=0)
        second = evaluate_memory_lowfi(_lowfi_spec(), seed=999)
        assert first == second

    def test_monotone_in_subarray_rows(self):
        # The analytic screen must at least order organisation knobs
        # sensibly — that ordering is what promotion relies on.
        latencies = [
            evaluate_memory_lowfi(_lowfi_spec(rows), 0)["point"]["write_latency"]
            for rows in (128, 256, 512)
        ]
        assert latencies == sorted(latencies)
        assert latencies[0] < latencies[-1]


class TestLowfiTwin:
    def test_twin_has_distinct_identity(self):
        job = Job("vaet-memory", {"node_nm": 45, "config": {}})
        twin = lowfi_twin(job)
        assert twin.target == LOWFI_MEMORY_TARGET
        assert twin.spec["fidelity"] == "low"
        assert twin.key != job.key
        assert twin.fidelity == "low"
        assert job.fidelity == "high"
        # The original job's spec is untouched.
        assert "fidelity" not in job.spec

    def test_twin_preserves_scheduling_fields(self):
        job = Job("vaet-memory", {"node_nm": 45}, reseed=2)
        twin = lowfi_twin(job)
        assert twin.reseed == 2


class TestPromotionIndices:
    ROWS = [
        {"a": 1.0, "b": 1.0},   # rank 0
        {"a": 2.0, "b": 2.0},   # rank 1
        {"a": 3.0, "b": 3.0},   # rank 2
        {"a": 1.0, "b": 1.0},   # duplicate of the frontier -> rank 0
    ]

    def test_frontier_band(self):
        assert promotion_indices(self.ROWS, ("a", "b"), 0) == [0, 3]
        assert promotion_indices(self.ROWS, ("a", "b"), 1) == [0, 1, 3]
        assert promotion_indices(self.ROWS, ("a", "b"), 9) == [0, 1, 2, 3]

    def test_none_rows_never_promote(self):
        rows = [None, {"a": 5.0, "b": 5.0}, None]
        assert promotion_indices(rows, ("a", "b")) == [1]
        assert promotion_indices([None, None], ("a", "b")) == []

    def test_non_finite_rows_never_promote(self):
        rows = [
            {"a": float("nan"), "b": 1.0},
            {"a": 2.0, "b": float("inf")},
            {"a": 3.0, "b": 3.0},
        ]
        assert promotion_indices(rows, ("a", "b")) == [2]

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            promotion_indices(self.ROWS, ())
        with pytest.raises(ValueError, match="promote_ranks"):
            promotion_indices(self.ROWS, ("a",), -1)


class TestRunLadderSynthetic:
    """Ladder mechanics on a stub evaluator (no Monte Carlo)."""

    def _execute(self, jobs):
        # Screen score mirrors the high-fidelity score exactly, so the
        # promotion is easy to reason about: x minimises "a".
        return [
            JobResult(job=job, ok=True, result={"a": float(job.spec["x"])})
            for job in jobs
        ]

    @staticmethod
    def _record(job, outcome):
        return dict(outcome.result) if outcome.ok else None

    def test_promotes_frontier_in_point_order(self):
        jobs = [Job("stub", {"x": x}) for x in (3, 1, 2, 1)]
        high_jobs, high_outcomes, trace = run_ladder(
            jobs, self._execute, self._record, ("a",), promote_ranks=0
        )
        assert [job.spec["x"] for job in high_jobs] == [1, 1]
        assert len(high_outcomes) == 2
        assert trace.screened == 4
        assert trace.promoted == 2
        assert trace.promoted_keys == [job.key for job in high_jobs]
        assert all(job.spec["fidelity"] == "low" for job in trace.low_jobs)
        assert trace.records(self._record) == [
            {"a": 3.0}, {"a": 1.0}, {"a": 2.0}, {"a": 1.0}
        ]

    def test_nothing_promotable_yields_empty_high_stage(self):
        jobs = [Job("stub", {"x": x}) for x in (1, 2)]

        def failing(batch):
            return [JobResult(job=j, ok=False, error="boom") for j in batch]

        high_jobs, high_outcomes, trace = run_ladder(
            jobs, failing, self._record, ("a",)
        )
        assert high_jobs == [] and high_outcomes == []
        assert trace.screened == 2 and trace.promoted == 0


class TestCampaignValidation:
    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            MemoryCampaign(_space(), fidelity="medium", **TINY)

    @pytest.mark.parametrize("sampler", ["surrogate"])
    def test_model_samplers_reject_ladder(self, sampler):
        for fidelity in ("ladder", "low"):
            with pytest.raises(ValueError, match="static sampler"):
                MemoryCampaign(
                    _space(), sampler=sampler, fidelity=fidelity, **TINY
                )

    def test_modes_constant(self):
        assert FIDELITY_MODES == ("high", "low", "ladder")


class TestSpecValidation:
    """CLI spec plumbing for the fidelity knobs."""

    def _spec(self, tmp_path, **extra):
        spec = dict(
            {"kind": "memory", "axes": {"subarray_rows": [128, 256]}}, **extra
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_ladder_spec_accepted_and_described(self, tmp_path, capsys):
        from repro.dse.__main__ import load_spec, main

        path = self._spec(tmp_path, fidelity="ladder", promote_ranks=2)
        assert load_spec(path)["fidelity"] == "ladder"
        assert main(["describe", path]) == 0
        out = capsys.readouterr().out
        assert "fidelity:  ladder (promote_ranks 2)" in out

    def test_bad_fidelity_specs_rejected(self, tmp_path):
        from repro.dse.__main__ import load_spec

        with pytest.raises(SystemExit, match="unknown fidelity"):
            load_spec(self._spec(tmp_path, fidelity="medium"))
        with pytest.raises(SystemExit, match="static sampler"):
            load_spec(self._spec(
                tmp_path, fidelity="ladder", sampler="surrogate"
            ))
        with pytest.raises(SystemExit, match="promote_ranks"):
            load_spec(self._spec(tmp_path, fidelity="ladder", promote_ranks=-1))

    def test_system_spec_rejects_fidelity(self, tmp_path):
        from repro.dse.__main__ import load_spec

        spec = {"kind": "system", "fidelity": "ladder"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SystemExit, match="memory campaigns only"):
            load_spec(str(path))


@pytest.mark.slow
class TestLadderAcceptance:
    """The tentpole acceptance property, on real evaluators."""

    def test_same_front_strictly_fewer_expensive_evaluations(self):
        space = _space()
        full = run(MemoryCampaign(space, objectives=OBJECTIVES, **TINY))
        ladder = run(MemoryCampaign(
            space, fidelity="ladder", objectives=OBJECTIVES, **TINY
        ))
        # Identical Pareto front, down to the job keys (ladder confirm
        # jobs share content keys with the plain campaign's jobs).
        full_front = sorted(r["key"] for r in full.pareto(OBJECTIVES))
        ladder_front = sorted(r["key"] for r in ladder.pareto(OBJECTIVES))
        assert ladder_front == full_front
        # Strictly fewer expensive (Monte-Carlo) evaluations.
        assert ladder.fidelity is not None
        assert ladder.fidelity.screened == len(full.jobs)
        assert 0 < ladder.fidelity.promoted < len(full.jobs)
        assert len(ladder.jobs) == ladder.fidelity.promoted
        full_keys = {job.key for job in full.jobs}
        assert all(job.key in full_keys for job in ladder.jobs)
        # Screening rows cover the whole space and are joinable.
        screens = ladder.screening_records()
        assert len(screens) == ladder.fidelity.screened
        assert all("write_latency" in row for row in screens)

    def test_low_fidelity_sweep(self):
        result = run(MemoryCampaign(_space(), fidelity="low", **TINY))
        assert all(o.ok for o in result.outcomes)
        records = result.records()
        assert len(records) == 6
        assert all(r["ecc_bits"] == 0 for r in records)
        assert all(
            job.target == LOWFI_MEMORY_TARGET and job.fidelity == "low"
            for job in result.jobs
        )


@pytest.mark.slow
class TestLadderResume:
    def _run(self, campaign_dir, promote_ranks=1, **options):
        return run(
            MemoryCampaign(
                _space(), fidelity="ladder", objectives=OBJECTIVES,
                promote_ranks=promote_ranks, **TINY,
            ),
            campaign_dir, **options,
        )

    def test_resume_is_pure_cache(self, tmp_path):
        campaign_dir = str(tmp_path / "camp")
        first = self._run(campaign_dir)
        again = self._run(campaign_dir, resume=True)
        assert all(o.from_cache for o in again.outcomes)
        assert all(o.from_cache for o in again.fidelity.low_outcomes)
        assert [j.key for j in again.jobs] == [j.key for j in first.jobs]
        assert again.records() == first.records()
        assert again.fidelity.promoted_keys == first.fidelity.promoted_keys

    def test_kill_during_screen_resumes_identically(self, tmp_path):
        reference = self._run(str(tmp_path / "ref"))

        class Killed(Exception):
            pass

        def bomb(event):
            if event.done == 2:
                raise Killed()

        campaign_dir = str(tmp_path / "killed")
        with pytest.raises(Killed):
            self._run(campaign_dir, progress=bomb)
        resumed = self._run(campaign_dir, resume=True)
        assert resumed.records() == reference.records()
        assert resumed.fidelity.promoted_keys == reference.fidelity.promoted_keys
        # The screen finished before the kill replays from cache.
        cached = sum(1 for o in resumed.fidelity.low_outcomes if o.from_cache)
        assert cached >= 1

    def test_fidelity_is_part_of_the_campaign_signature(self, tmp_path):
        campaign_dir = str(tmp_path / "camp")
        self._run(campaign_dir)
        with pytest.raises(ValueError, match="different campaign"):
            run(
                MemoryCampaign(_space(), objectives=OBJECTIVES, **TINY),
                campaign_dir, resume=True,
            )
        with pytest.raises(ValueError, match="different campaign"):
            self._run(campaign_dir, resume=True, promote_ranks=3)
