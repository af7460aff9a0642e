import pytest

import timing


@pytest.mark.parametrize(
    "n, expected",
    [
        (10_000, 99.9),
        (9_999, 99.0),
        (1_000, 99.0),
        (999, 90.0),
        (100, 90.0),
        (99, 50.0),
        (20, 50.0),
        (19, None),
        (3, None),
    ],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert timing.highest_percentile(n) == expected
    if expected is not None:
        assert timing.samples_beyond(n, expected) >= 10


def test_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert timing.nearest_rank(values, 50) == 3.0
    assert timing.nearest_rank(values, 99) == 5.0
    assert timing.nearest_rank(values, 0) == 1.0


def test_scale_is_one_at_reference_speed():
    assert timing.scale(timing.CALIBRATION_REFERENCE_S) == 1.0
    assert timing.scale(2 * timing.CALIBRATION_REFERENCE_S) == 0.5
    assert timing.calibration_unit() > 0.0
