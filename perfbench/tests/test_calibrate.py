import time

import pytest

from perfbench.calibrate import REFERENCE_S, Speedometer, calibrate
from perfbench.workloads import Window


def test_operation_is_scaled_by_the_readings_around_and_during_it():
    readings = [REFERENCE_S, 2 * REFERENCE_S, 3 * REFERENCE_S, 6 * REFERENCE_S]
    # Reading 0 before the first op, reading 1 between the ops; the
    # second op saw reading 2 while it ran and reading 3 after it.
    ops = [(1.5, 0, 1), (3.0, 1, 3)]
    assert calibrate(ops, readings) == pytest.approx([1.0, 3.0 / (11 / 3)])


class _FixedSpeed(Speedometer):
    """Readings that come from a list instead of the reference task."""

    def __init__(self, values):
        super().__init__()
        self.values = list(values)

    def tick(self) -> None:
        self.readings.append(self.values.pop(0))


def test_window_calibrates_each_operation_and_sums_them():
    window = Window(speed=_FixedSpeed([REFERENCE_S, 2 * REFERENCE_S]))
    window.speed.tick()
    window.run_op(lambda: None)
    window.run_op(lambda: None)
    window.speed.tick()
    calibrated = window.finish()
    assert [(first, last) for _, first, last in window.ops] == [(0, 1), (0, 1)]
    assert window.elapsed == pytest.approx(sum(calibrated))
    assert window.elapsed == pytest.approx(window.wall_s / 1.5)


def test_sampling_reads_during_a_long_operation_and_does_not_charge_it():
    window = Window(speed=Speedometer(every_s=0.02, repeats=1))
    with window.speed.sampling():
        window.run_op(lambda: time.sleep(0.3))
    (wall, first, last), = window.ops
    assert last - first >= 5
    assert len(window.speed.readings) == last + 1
    assert 0.25 < wall < 0.3 + 0.05
    assert window.speed.spent_s > 0


def test_span_uses_the_readings_around_and_inside_it():
    from perfbench.calibrate import calibrate_spans

    stamps = [0.0, 1.0, 2.0, 3.0]
    readings = [REFERENCE_S, 2 * REFERENCE_S, 3 * REFERENCE_S, 4 * REFERENCE_S]
    # (0.5, 0.8) lies between readings 0 and 1; (1.5, 2.5) spans reading 2.
    calibrated = calibrate_spans([(0.5, 0.8), (1.5, 2.5)], stamps, readings)
    assert calibrated == pytest.approx([0.3 / 1.5, 1.0 / 3.0])
