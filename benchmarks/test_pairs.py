"""The paired-runs rule of ``benchmarks/pairs.py`` (``make bench-pairs``)."""

from pairs import judge, quartiles


def test_quartiles_are_the_inclusive_ones():
    assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_gain_needs_nine_wins_in_ten_and_more_than_the_parents_spread():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    clear = judge(parent, [p / 4 for p in parent], "lower")
    assert (clear["wins"], clear["losses"], clear["gain_holds"]) == (10, 0, True)
    # wins every pair, but by less than the parent's own quartile distance
    within_noise = judge(parent, [p - 0.001 for p in parent], "lower")
    assert within_noise["wins"] == 10 and not within_noise["gain_holds"]
    # a large median gain that loses two pairs in ten is not shown either
    patchy = judge(parent, [0.5] * 8 + [1.5, 1.5], "lower")
    assert patchy["wins"] == 8 and not patchy["gain_holds"]
    # ties count for neither side; the direction follows the metric
    assert judge([1.0, 1.0], [1.0, 1.0], "lower")["wins"] == 0
    higher = judge([10.0] * 10, [20.0] * 10, "higher")
    assert higher["wins"] == 10 and higher["gain_holds"]
    assert not judge([10.0] * 10, [20.0] * 10, "lower")["gain_holds"]
