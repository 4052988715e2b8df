"""Tests for repro.dse.space: axes, grid enumeration, LHS sampling."""

import pytest

from repro.dse import Axis, ParameterSpace


class TestAxis:
    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            Axis("rows", [])

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Axis("", [1])

    def test_len(self):
        assert len(Axis("rows", [128, 256])) == 2


class TestGrid:
    def test_size_and_count(self):
        space = ParameterSpace([("a", [1, 2]), ("b", [10, 20, 30])])
        assert space.size == 6
        assert len(list(space.grid())) == 6

    def test_order_is_axis_major(self):
        space = ParameterSpace().add("a", [1, 2]).add("b", ["x", "y"])
        points = list(space.grid())
        assert points[0] == {"a": 1, "b": "x"}
        assert points[1] == {"a": 1, "b": "y"}
        assert points[-1] == {"a": 2, "b": "y"}

    def test_duplicate_axis_rejected(self):
        space = ParameterSpace().add("a", [1])
        with pytest.raises(ValueError):
            space.add("a", [2])

    def test_empty_space(self):
        space = ParameterSpace()
        assert space.size == 1
        assert list(space.grid()) == []


class TestLatinHypercube:
    def test_deterministic_in_seed(self):
        space = ParameterSpace([("a", [1, 2, 3, 4]), ("b", list(range(8)))])
        assert space.sample(6, seed=3) == space.sample(6, seed=3)
        assert space.sample(6, seed=3) != space.sample(6, seed=4)

    def test_stratification_covers_axis(self):
        # count == axis length -> every value appears exactly once.
        space = ParameterSpace([("a", [1, 2, 3, 4])])
        values = sorted(p["a"] for p in space.sample(4, seed=0))
        assert values == [1, 2, 3, 4]

    def test_sample_count(self):
        space = ParameterSpace([("a", [1, 2]), ("b", [3, 4, 5])])
        assert len(space.sample(10, seed=1)) == 10

    def test_values_come_from_axes(self):
        space = ParameterSpace([("a", [128, 256, 512])])
        assert all(p["a"] in (128, 256, 512) for p in space.sample(20, seed=2))

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            ParameterSpace([("a", [1])]).sample(0)
