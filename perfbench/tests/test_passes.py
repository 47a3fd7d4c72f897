import pytest

from perfbench.workloads import Budget, Window, _run_passes


@pytest.mark.parametrize("seconds, passes", [(5, 1), (15, 1), (20, 2), (35, 3)])
def test_pass_count_follows_the_budget_not_the_pass_speed(seconds, passes):
    """An instant pass must not buy extra passes: the count is the same
    on a fast and a slow commit."""
    window = Window()
    _run_passes(Budget(seconds=seconds), 10.0,
                lambda: window.outputs.append("built"), window)
    assert window.units == passes
    assert window.attempted == passes
    assert len(window.latencies) == passes


def test_traced_repeat_runs_the_same_number_of_passes():
    window = Window()
    _run_passes(Budget(units=4), 10.0, lambda: window.outputs.append(1), window)
    assert window.units == 4
