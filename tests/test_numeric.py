"""``left_sum``: the float sum every pinned simulated output goes through."""

from repro.numeric import left_sum


def test_adds_left_to_right_without_compensation():
    # Plain IEEE addition of ten 0.1s lands one ulp below 1.0; a
    # compensated sum (the builtin on Python 3.12+) rounds it to 1.0.
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum([1e16, 1.0, -1e16]) == 0.0


def test_matches_the_pre_312_builtin_types():
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert left_sum(iter([1, 2, 3])) == 6 and type(left_sum([1, 2])) is int
    assert left_sum([1, 0.5]) == 1.5
