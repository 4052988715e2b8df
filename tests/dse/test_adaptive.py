"""Tests for score_records: the batch scoring of model-driven campaigns."""

import pytest

from repro.dse import score_records


class TestScoreRecords:
    def test_single_objective_scores_by_value(self):
        records = [{"edp": 3.0}, None, {"edp": 1.0}]
        assert score_records(records, ("edp",)) == [3.0, None, 1.0]

    def test_single_objective_max_sense(self):
        records = [{"speedup": 2.0}, {"speedup": 5.0}]
        scores = score_records(records, (("speedup", "max"),))
        assert scores[1] < scores[0]

    def test_multi_objective_scores_by_dominance_rank(self):
        records = [
            {"lat": 1.0, "energy": 9.0},  # frontier
            {"lat": 9.0, "energy": 1.0},  # frontier
            {"lat": 9.0, "energy": 9.0},  # dominated
            None,
        ]
        scores = score_records(records, ("lat", "energy"))
        assert scores[0] == scores[1] == 0.0
        assert scores[2] > 0.0
        assert scores[3] is None

    def test_requires_objectives(self):
        with pytest.raises(ValueError):
            score_records([{"a": 1}], ())

    def test_non_finite_single_objective_is_unscorable(self):
        records = [
            {"edp": float("nan")},
            {"edp": float("inf")},
            {"edp": float("-inf")},
            {"edp": 2.0},
        ]
        assert score_records(records, ("edp",)) == [None, None, None, 2.0]

    def test_non_finite_multi_objective_is_unscorable(self):
        records = [
            {"lat": float("nan"), "energy": 1.0},
            {"lat": 1.0, "energy": 9.0},
            {"lat": 9.0, "energy": 9.0},
        ]
        scores = score_records(records, ("lat", "energy"))
        # The NaN record is out; the remaining two rank as if it never
        # existed (pre-fix, NaN joined the dominance matrix and sat on
        # rank 0 forever, shielding nothing but polluting the frontier).
        assert scores[0] is None
        assert scores[1] == 0.0
        assert scores[2] == 1.0
