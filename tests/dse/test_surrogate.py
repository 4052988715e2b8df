"""SurrogateSampler: determinism, budget efficiency, campaign replay.

The fast suites drive the sampler on an analytic toy objective; the
``slow`` suites pay for real VAET-STT evaluations through ``run`` to
pin the kill/resume
and executor-replay guarantees end to end.
"""

import math

import pytest

from repro.dse import (
    CampaignState,
    MemoryCampaign,
    ParameterSpace,
    SurrogateSampler,
    SystemCampaign,
    evaluations_to_target,
    run,
)
from repro.dse.checkpoint import JOURNAL_NAME
from repro.dse.surrogate import AdaptiveRound, AdaptiveTrace, point_key

TINY = dict(num_words=100, error_population=5_000)

#: Toy objective: a discrete bowl with its optimum off-centre, so grid
#: symmetry never gifts the optimum to a stratified draw.
BOWL_OPTIMUM = (11, 3)


def _bowl_score(point):
    dx = point["x"] - BOWL_OPTIMUM[0]
    dy = point["y"] - BOWL_OPTIMUM[1]
    return float(dx * dx + dy * dy)


def _bowl_evaluate(points):
    return [_bowl_score(point) for point in points]


def _bowl_space(side=16):
    return ParameterSpace().add("x", list(range(side))).add(
        "y", list(range(side))
    )


def _memory_space():
    return ParameterSpace().add("subarray_rows", [128, 256, 512]).add(
        "wer_target", [1e-9, 1e-12]
    )


class TestValidation:
    @pytest.mark.parametrize(
        "options",
        [
            dict(batch=0),
            dict(rounds=0),
            dict(gamma=0.0),
            dict(gamma=1.0),
            dict(candidates=0),
            dict(smoothing=0.0),
            dict(init_rounds=0),
        ],
    )
    def test_bad_options_rejected(self, options):
        with pytest.raises(ValueError):
            SurrogateSampler(_bowl_space(), **options)


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        traces = [
            SurrogateSampler(
                _bowl_space(), batch=6, rounds=5, candidates=128, seed=7
            ).run(_bowl_evaluate)
            for _ in range(2)
        ]
        first, second = traces
        assert len(first.rounds) == len(second.rounds)
        for a, b in zip(first.rounds, second.rounds):
            assert a.points == b.points
            assert a.scores == b.scores
        assert first.best_point == second.best_point
        assert first.best_score == second.best_score

    def test_propose_is_pure_in_its_inputs(self):
        sampler = SurrogateSampler(
            _bowl_space(), batch=4, rounds=4, candidates=64, seed=3
        )
        history = [({"x": x, "y": y}, _bowl_score({"x": x, "y": y}))
                   for x, y in [(0, 0), (11, 3), (15, 15), (10, 4)]]
        seen = {point_key(point) for point, _ in history}
        first = sampler.propose(2, list(history), set(seen))
        second = sampler.propose(2, list(history), set(seen))
        assert first == second

    def test_never_proposes_a_point_twice(self):
        sampler = SurrogateSampler(
            _bowl_space(8), batch=8, rounds=8, candidates=64, seed=1
        )
        trace = sampler.run(_bowl_evaluate)
        keys = [
            point_key(point)
            for round_record in trace.rounds
            for point in round_record.points
        ]
        assert len(keys) == len(set(keys))
        assert trace.evaluations == len(keys)

    def test_small_space_fully_enumerated_then_stops(self):
        space = ParameterSpace().add("x", [0, 1]).add("y", [0, 1])
        sampler = SurrogateSampler(space, batch=3, rounds=10, seed=0)
        trace = sampler.run(_bowl_evaluate)
        assert trace.evaluations == space.size
        assert trace.best_score == _bowl_score({"x": 1, "y": 1})


class TestUnscorablePoints:
    def test_nan_score_cannot_become_best_point(self):
        """NaN compares false everywhere: a first-seen NaN kept by
        ``min`` would crown a broken point and poison the model."""
        space = ParameterSpace().add("x", list(range(8)))

        def evaluate(points):
            return [
                float("nan") if p["x"] == 0 else float(p["x"])
                for p in points
            ]

        trace = SurrogateSampler(space, batch=8, rounds=1).run(evaluate)
        assert trace.rounds[0].best_point == {"x": 1}
        assert trace.best_point == {"x": 1}
        assert trace.best_score == 1.0

    def test_unscorable_rounds_leave_no_winner(self):
        trace = SurrogateSampler(_bowl_space(), batch=6, rounds=3).run(
            lambda pts: [float("nan")] * (len(pts) - 1) + [None]
        )
        assert len(trace.rounds) == 3  # unscorable rounds never stop it
        assert all(r.best_point is None for r in trace.rounds)
        assert trace.best_point is None and trace.best_score is None

    def test_score_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="scores"):
            SurrogateSampler(_bowl_space(), batch=4, rounds=1).run(
                lambda pts: [1.0]
            )


class TestPointKey:
    def test_enum_and_plain_values_share_a_key(self):
        """Points read back from a journal or cache carry an enum
        axis's plain value; dedup must treat them as the same point."""
        import enum
        import json

        from repro.dse import canonical_json

        class Mode(enum.Enum):
            STT = "stt"
            SOT = "sot"

        raw = {"mode": Mode.SOT, "rows": 256}
        round_tripped = json.loads(canonical_json({"mode": "sot", "rows": 256}))
        assert point_key(raw) == point_key(round_tripped)
        assert point_key(raw) != point_key({"mode": Mode.STT, "rows": 256})


class TestBudgetEfficiency:
    """The tentpole claim: the model beats blind LHS to a near-optimum.

    Both samplers get the identical budget (64 evaluations of a
    256-point bowl); the LHS baseline is exactly what
    ``sampler="lhs"`` runs — one stratified ``space.sample`` draw,
    scored in order.  Seeds are pinned, every quantity below is
    deterministic, and the margin held on every seed when chosen.
    """

    SEEDS = (0, 1, 2, 3, 4, 5)
    BUDGET = 64
    TARGET = 1.0  # within one grid step of the optimum

    def _lhs_evaluations(self, space, seed):
        for spent, point in enumerate(
            space.sample(self.BUDGET, seed=seed), start=1
        ):
            if _bowl_score(point) <= self.TARGET:
                return spent
        return None

    @pytest.mark.parametrize("seed", SEEDS)
    def test_surrogate_reaches_target_in_fewer_evaluations(self, seed):
        space = _bowl_space()
        sampler = SurrogateSampler(
            space, batch=8, rounds=8, candidates=256, seed=seed
        )
        trace = sampler.run(_bowl_evaluate)
        surrogate_evals = evaluations_to_target(trace, self.TARGET)
        lhs_evals = self._lhs_evaluations(space, seed)
        assert surrogate_evals is not None
        assert surrogate_evals <= self.BUDGET
        assert lhs_evals is None or surrogate_evals < lhs_evals
        # And with the budget spent, the model has found the optimum.
        assert trace.best_score == 0.0
        assert trace.best_point == {"x": 11, "y": 3}


class TestEvaluationsToTarget:
    def test_counts_in_evaluation_order(self):
        trace = AdaptiveTrace(rounds=[
            AdaptiveRound(index=0, space_size=9,
                          points=[{"x": 0}, {"x": 1}], scores=[5.0, 3.0]),
            AdaptiveRound(index=1, space_size=9,
                          points=[{"x": 2}, {"x": 3}], scores=[None, 1.0]),
        ])
        assert evaluations_to_target(trace, 3.0) == 2
        assert evaluations_to_target(trace, 1.0) == 4
        assert evaluations_to_target(trace, 0.5) is None

    def test_non_finite_scores_never_match(self):
        trace = AdaptiveTrace(rounds=[
            AdaptiveRound(index=0, space_size=4,
                          points=[{"x": 0}, {"x": 1}],
                          scores=[float("nan"), float("-inf")]),
        ])
        assert evaluations_to_target(trace, math.inf) is None


@pytest.mark.slow
class TestSurrogateCampaigns:
    def test_explore_memory_surrogate(self):
        result = run(MemoryCampaign(
            _memory_space(),
            sampler="surrogate",
            sampler_options=dict(batch=3, rounds=2, seed=0),
            **TINY,
        ))
        assert result.adaptive is not None
        assert 1 <= result.adaptive.evaluations <= 6
        assert result.adaptive.best_score is not None
        assert len(result.records()) >= 1
        # Deduplicated jobs, one outcome per job.
        keys = [job.key for job in result.jobs]
        assert len(keys) == len(set(keys)) == len(result.outcomes)

    def test_explore_system_surrogate(self):
        from repro.magpie.scenarios import Scenario

        campaign = SystemCampaign(
            workloads=["bodytrack", "canneal"],
            scenarios=[Scenario.FULL_SRAM, Scenario.FULL_L2_STT],
            sampler="surrogate",
            sampler_options=dict(batch=2, rounds=2, seed=0),
        )
        result = run(campaign, workers=1)
        assert result.adaptive.evaluations == len(result.results) == 4
        best = min(row["edp"] for row in result.records())
        assert result.adaptive.best_score == pytest.approx(best)

    def test_explore_system_rejects_unknown_sampler(self):
        with pytest.raises(ValueError, match="surrogate"):
            SystemCampaign(sampler="halving")


@pytest.mark.slow
class TestSurrogateKillResume:
    """Replay stability through the job/cache machinery.

    A killed surrogate campaign must resume through the *identical*
    proposal path — same jobs in the same order — with every point
    finished before the kill served from cache, and final records
    identical to an uninterrupted reference run.
    """

    OPTIONS = dict(batch=3, rounds=2, seed=0)

    def _run(self, campaign_dir, **options):
        campaign = MemoryCampaign(
            _memory_space(), sampler="surrogate",
            sampler_options=dict(self.OPTIONS), **TINY,
        )
        return run(campaign, campaign_dir, **options)

    def test_kill_resume_identical_proposal_path(self, tmp_path):
        reference = self._run(str(tmp_path / "ref"))
        assert reference.adaptive is not None

        class Killed(Exception):
            pass

        def bomb(event):
            if event.done == 2:
                raise Killed()

        campaign_dir = str(tmp_path / "killed")
        with pytest.raises(Killed):
            self._run(campaign_dir, progress=bomb)

        journal = CampaignState.load(tmp_path / "killed" / JOURNAL_NAME)
        finished = set(journal.completed)
        assert finished  # the kill landed mid-campaign

        resumed = self._run(campaign_dir, resume=True)
        # Identical proposal path: same jobs, same order.
        assert [j.key for j in resumed.jobs] == [j.key for j in reference.jobs]
        # Zero re-evaluation of anything finished before the kill.
        for job, outcome in zip(resumed.jobs, resumed.outcomes):
            if job.key in finished:
                assert outcome.from_cache
        assert resumed.records() == reference.records()
        assert resumed.adaptive.best_score == reference.adaptive.best_score

    @pytest.mark.parametrize("executor", ["serial", "pool"])
    def test_executors_replay_identically(self, tmp_path, executor):
        reference = self._run(str(tmp_path / "ref"))
        result = self._run(
            str(tmp_path / executor), executor=executor, workers=2
        )
        assert [j.key for j in result.jobs] == [
            j.key for j in reference.jobs
        ]
        assert result.records() == reference.records()
