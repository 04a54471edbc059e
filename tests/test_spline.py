import bisect

import numpy as np
import pytest

from gaitnorm import ValidationError, eval_spline, fit_natural_cubic

from helpers import (dense_natural_spline_m, random_knots,
                     reference_spline_values, spline_first_derivative,
                     spline_second_derivative, spline_value_on_segment)


class TestFit:
    def test_linear_data_reproduced(self):
        s = fit_natural_cubic([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert eval_spline(s, 1.5) == pytest.approx(1.5, abs=1e-12)
        for t in (0.25, 0.9, 2.7):
            assert eval_spline(s, t) == pytest.approx(t, abs=1e-12)

    def test_three_knot_hand_case(self):
        # interior equation: 4*M1 = 6*((0-1)/1 - (1-0)/1) = -12
        s = fit_natural_cubic([(0, 0), (1, 1), (2, 0)])
        np.testing.assert_allclose(s.m, [0.0, -3.0, 0.0], atol=1e-12)
        assert eval_spline(s, 0.5) == pytest.approx(0.6875, abs=1e-9)

    def test_two_knots_is_a_line(self):
        s = fit_natural_cubic([(0, 5), (2, 9)])
        assert eval_spline(s, 1.0) == pytest.approx(7.0, abs=1e-12)
        np.testing.assert_allclose(s.m, [0.0, 0.0])

    def test_single_knot_rejected(self):
        with pytest.raises(ValidationError):
            fit_natural_cubic([(0, 5)])

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValidationError):
            fit_natural_cubic([(0, 0), (1, 1), (1, 2), (2, 0)])

    def test_decreasing_x_rejected(self):
        with pytest.raises(ValidationError):
            fit_natural_cubic([(0, 0), (2, 1), (1, 2)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            fit_natural_cubic([(0, 0), (1, float("nan")), (2, 0)])


class TestEval:
    def test_knot_reproduction(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            knots = random_knots(rng, int(rng.integers(2, 13)))
            s = fit_natural_cubic(knots)
            for x, y in knots:
                tol = 1e-12 * max(1.0, abs(y))
                assert abs(eval_spline(s, x) - y) <= tol

    def test_array_equals_scalar_calls(self):
        # bit-identical, not approximate: resampled angles are written at
        # full precision, so the array path must reproduce the scalar one
        rng = np.random.default_rng(25)
        for _ in range(100):
            knots = random_knots(rng, int(rng.integers(2, 13)))
            s = fit_natural_cubic(knots)
            grid = np.concatenate(([s.x[0]], s.x,
                                   rng.uniform(s.x[0], s.x[-1], 200),
                                   [s.x[-1]]))
            values = eval_spline(s, grid)
            assert values.shape == grid.shape
            assert values.tolist() == [eval_spline(s, float(t)) for t in grid]
            # the segment formula on numpy scalars, one point at a time
            xs = s.x.tolist()
            segments = [min(max(bisect.bisect_right(xs, t) - 1, 0), len(xs) - 2)
                        for t in grid]
            assert values.tolist() == [
                spline_value_on_segment(s, i, t) for i, t in zip(segments, grid)]

    def test_array_shape_kept(self):
        s = fit_natural_cubic([(0, 0), (1, 1), (2, 0), (3, 1)])
        assert eval_spline(s, np.full((2, 3), 1.5)).shape == (2, 3)
        assert isinstance(eval_spline(s, 1.5), float)

    def test_extrapolation_rejected_in_array(self):
        s = fit_natural_cubic([(0, 0), (1, 1), (2, 2), (3, 3)])
        with pytest.raises(ValidationError, match="3.5"):
            eval_spline(s, np.array([0.5, 3.5, 1.0]))

    def test_extrapolation_rejected(self):
        s = fit_natural_cubic([(0, 0), (1, 1), (2, 2), (3, 3)])
        with pytest.raises(ValidationError):
            eval_spline(s, 3.5)
        with pytest.raises(ValidationError):
            eval_spline(s, -0.1)


class TestAgainstDenseOracle:
    def test_coefficients_match_dense_solve(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            knots = random_knots(rng, int(rng.integers(3, 13)))
            s = fit_natural_cubic(knots)
            x = np.array([p[0] for p in knots])
            y = np.array([p[1] for p in knots])
            np.testing.assert_allclose(s.m, dense_natural_spline_m(x, y),
                                       atol=1e-9)

    def test_natural_boundary(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            knots = random_knots(rng, int(rng.integers(3, 13)))
            s = fit_natural_cubic(knots)
            n = len(knots)
            assert abs(spline_second_derivative(s, 0, s.x[0])) < 1e-9
            assert abs(spline_second_derivative(s, n - 2, s.x[-1])) < 1e-9

    def test_c2_continuity_at_interior_knots(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            knots = random_knots(rng, int(rng.integers(4, 13)))
            s = fit_natural_cubic(knots)
            for i in range(1, len(knots) - 1):
                t = s.x[i]
                assert spline_value_on_segment(s, i - 1, t) == pytest.approx(
                    spline_value_on_segment(s, i, t), abs=1e-9)
                assert spline_first_derivative(s, i - 1, t) == pytest.approx(
                    spline_first_derivative(s, i, t), abs=1e-9)
                assert spline_second_derivative(s, i - 1, t) == pytest.approx(
                    spline_second_derivative(s, i, t), abs=1e-9)


class TestBatched:
    """Rows (x, y_1..y_b) fit b series in one solve; each column must be
    bit for bit the fit of its series alone."""

    def _layout(self, rng):
        knots = random_knots(rng, int(rng.integers(2, 40)))
        return np.array([x for x, _ in knots])

    def _check(self, x, ys, t):
        batched = fit_natural_cubic(np.column_stack([x] + ys))
        values = eval_spline(batched, t)
        assert values.shape == t.shape + ((len(ys),) if len(ys) > 1 else ())
        values = values.reshape(t.shape + (len(ys),))
        for col, y in enumerate(ys):
            single = fit_natural_cubic(np.column_stack((x, y)))
            assert batched.m.reshape(len(x), -1)[:, col].tobytes() == \
                single.m.tobytes()
            assert values[..., col].tobytes() == \
                eval_spline(single, t).tobytes()
            assert values[..., col].tobytes() == \
                reference_spline_values(x, y, t).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_shared_layout_equals_single_fits(self, seed):
        rng = np.random.default_rng([41, seed])
        for _ in range(25):
            x = self._layout(rng)
            ys = [rng.uniform(-50.0, 180.0, len(x))
                  for _ in range(int(rng.integers(1, 12)))]
            t = np.concatenate(([x[0]], x, rng.uniform(x[0], x[-1], 150),
                                [x[-1]]))
            self._check(x, ys, t)

    def test_distinct_layouts_each_equal_single_fits(self):
        rng = np.random.default_rng(42)
        layouts = [self._layout(rng) for _ in range(30)]
        for x in layouts:
            ys = [rng.normal(90.0, 40.0, len(x)) for _ in range(3)]
            self._check(x, ys, rng.uniform(x[0], x[-1], (4, 25)))

    def test_single_series_keeps_one_dimension(self):
        s = fit_natural_cubic([(0, 0), (1, 1), (2, 0), (3, 1)])
        assert s.y.shape == s.m.shape == (4,)
        b = fit_natural_cubic([(0, 0, 5), (1, 1, 6), (2, 0, 5), (3, 1, 6)])
        assert b.y.shape == b.m.shape == (4, 2)
        assert eval_spline(b, 1.5).shape == (2,)
        assert eval_spline(b, [0.5, 1.5, 2.5]).shape == (3, 2)


BAD_KNOTS = [
    ([1.0, 2.0, 3.0], "knots must be a sequence of (x, y) pairs"),
    ([[0.0], [1.0]], "knots must be a sequence of (x, y) pairs"),
    ([[[0.0, 1.0]], [[1.0, 2.0]]], "knots must be a sequence of (x, y) pairs"),
    ([(0.0, 5.0)], "need at least 2 knots, got 1"),
    (np.empty((0, 3)), "need at least 2 knots, got 0"),
    ([(0, 0), (1, float("nan")), (2, 0)], "knot coordinates must be finite"),
    ([(0, 0, 1), (1, 1, float("inf")), (2, 0, 1)],
     "knot coordinates must be finite"),
    ([(float("nan"), 0, 1), (1, 1, 1)], "knot coordinates must be finite"),
    ([(0, 0), (1, 1), (1, 2), (2, 0)],
     "knot abscissae must be strictly increasing"),
    ([(0, 0, 0), (2, 1, 1), (1, 2, 2)],
     "knot abscissae must be strictly increasing"),
]


@pytest.mark.parametrize("knots, message", BAD_KNOTS)
def test_bad_knot_messages(knots, message):
    with pytest.raises(ValidationError) as exc:
        fit_natural_cubic(knots)
    assert str(exc.value) == message
