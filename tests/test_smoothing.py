"""Savitzky-Golay smoothing with symmetric edge shrinkage."""

import numpy as np
import pytest

from abstainkit import smooth_savitzky_golay
from abstainkit.errors import WindowTooLarge

from oracles import fit_line_center


def test_interior_order1_equals_moving_average():
    rng = np.random.default_rng(0)
    v = rng.normal(0, 1, 60)
    out = smooth_savitzky_golay(v)
    for i in range(5, 55):
        assert out[i] == pytest.approx(v[i - 5 : i + 6].mean(), abs=1e-12)


def test_linear_input_reproduced_exactly():
    v = 0.7 * np.arange(40) - 3.0
    np.testing.assert_allclose(smooth_savitzky_golay(v), v, atol=1e-10)


def test_interior_matches_per_window_least_squares():
    rng = np.random.default_rng(1)
    v = rng.normal(0, 2, 50)
    out = smooth_savitzky_golay(v)
    for i in range(5, 45):
        assert out[i] == pytest.approx(fit_line_center(v[i - 5 : i + 6]), abs=1e-10)


def test_edges_use_shrunken_centered_windows():
    rng = np.random.default_rng(2)
    v = rng.normal(0, 1, 30)
    out = smooth_savitzky_golay(v)
    # endpoints come from a 1-point window; one step in, a 3-point window
    assert out[0] == v[0]
    assert out[-1] == v[-1]
    assert out[1] == pytest.approx(v[:3].mean(), abs=1e-12)
    assert out[-2] == pytest.approx(v[-3:].mean(), abs=1e-12)


def test_order1_smoothing_preserves_value_range():
    rng = np.random.default_rng(3)
    v = rng.uniform(0.2, 0.8, 100)
    out = smooth_savitzky_golay(v)
    assert out.min() >= 0.2 - 1e-12 and out.max() <= 0.8 + 1e-12


def test_window_validation():
    with pytest.raises(WindowTooLarge, match="^window 11 exceeds input length 10$"):
        smooth_savitzky_golay(np.arange(10.0))


def test_full_length_window_is_single_fit():
    v = 2.0 ** np.arange(11)
    out = smooth_savitzky_golay(v)
    assert out[5] == pytest.approx(v.mean(), abs=1e-12)
