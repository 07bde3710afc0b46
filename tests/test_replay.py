"""`replay.float_diff`, the measure that compares two revisions' job lines."""

import math

from replay import float_diff


def test_equal_values_have_no_difference():
    line = {"job": "a/1/0/0:x", "exit": 0, "payload": {"v": [1.0, math.nan, 2, "s", None]}}
    assert float_diff(line, {**line}) == (0.0, 0.0, None)


def test_floats_are_measured_past_a_differing_leaf():
    """A CSV digest that differs is reported, and the float leaves after it
    are still measured, the relative gap as |a - b| / (1 + |a|)."""
    old = {"csv_sha256": "aa", "payload": {"series": [1.0, 2.0, 1e-10]}, "tail": "x"}
    new = {"csv_sha256": "bb", "payload": {"series": [1.0, 2.5, 0.0]}, "tail": "y"}
    assert float_diff(old, new) == (0.5, 0.5 / 3.0, ("$.csv_sha256", "aa", "bb"))
    gap, rel, first = float_diff([1e-10], [0.0])
    assert (gap, rel, first) == (1e-10, 1e-10 / (1.0 + 1e-10), None)


def test_the_first_other_difference_is_reported_in_order():
    assert float_diff({"a": [1.0, "p"], "b": "q"}, {"a": [1.5, "r"], "b": "s"}) == (
        0.5, 0.5 / 2.0, ("$.a[1]", "p", "r"))
    assert float_diff([1, 2.0], [1.0, 3.0]) == (1.0, 1.0 / 3.0, ("$[0]", 1, 1.0))
    assert float_diff([math.inf], [1.0]) == (0.0, 0.0, ("$[0]", math.inf, 1.0))
    assert float_diff([math.nan], [1.0])[2][0] == "$[0]"


def test_a_shape_difference_is_reported_and_the_shared_part_measured():
    gap, rel, first = float_diff({"v": [1.0, 2.0, 3.0]}, {"v": [1.0, 4.0]})
    assert (gap, rel) == (2.0, 2.0 / 3.0) and first == ("$.v", [1.0, 2.0, 3.0], [1.0, 4.0])
    gap, rel, first = float_diff({"k": 1.0, "old": 0}, {"k": 2.0, "new": 0})
    assert (gap, rel) == (1.0, 0.5) and first[0] == "$"
