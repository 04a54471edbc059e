"""Property checks of the figures' geometry.

The band panel's path data (0.11.0): the band and mean line are relative
steps in whole thousandths, and summed back up every point is ``_fmt``
of its absolute coordinate, whatever the model, k and panel box, exact
half-thousandth ties (0.0625 -> ``0.062``) included.

The heatmap's cells (0.12.0): decoded from cell units back to pixel
cells, every cell of any matrix shape has the reference's colour, gray
or the NaN colour, severities outside [0, 1] and half-shade ties
included.

Runs only where hypothesis is installed; ``test_figures.py`` holds seeded
cases that run without it.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from gaitnorm.figures import _fmt, _panel, render_heatmap  # noqa: E402

from helpers import (decode_heatmap, decode_series,  # noqa: E402
                     reference_heatmap)


def _at(v) -> int:
    """``_fmt`` text of ``v`` as whole thousandths."""
    return int(_fmt(v).replace(".", ""))


@st.composite
def _panels(draw):
    """(box, lo, hi, k, mean, std, ties): random floats, or (``ties``)
    values whose every x and y lands on an odd sixteenth, a tie at the
    third decimal: x0 and y1 odd sixteenths, an x step of 1/8 and y a
    whole number of eighths below y1 (the y range a power of two, the
    band edges whole degrees)."""
    n = draw(st.integers(2, 120))
    if draw(st.booleans()):
        def sixteenths(lo, hi):
            return draw(st.integers(lo, hi)) * 2 + 1
        x0 = sixteenths(-800, 800) / 16.0
        y1 = sixteenths(-800, 8000) / 16.0
        span = 2.0 ** draw(st.integers(5, 8))
        box = (x0, x0 + (n - 1) / 8.0, y1 - span / 8.0 * draw(
            st.integers(1, 40)), y1)
        lo = float(draw(st.integers(-200, 200)))
        k = float(draw(st.sampled_from([1, 2, 3])))
        std = np.array(draw(st.lists(st.integers(0, 3), min_size=n,
                                     max_size=n)), dtype=float)
        mean = np.array(draw(st.lists(st.integers(9, int(span) - 9),
                                      min_size=n, max_size=n)),
                        dtype=float) + lo
        return box, lo, lo + span, k, mean, std, True
    coord = st.floats(-2000.0, 2000.0)
    x0, x1, y0, y1 = (draw(coord) for _ in range(4))
    mean = np.array(draw(st.lists(st.floats(0.0, 180.0), min_size=n,
                                  max_size=n)))
    std = np.array(draw(st.lists(st.floats(0.0, 60.0), min_size=n,
                                 max_size=n)))
    k = draw(st.floats(0.05, 5.0))
    lo = float(np.floor((mean - k * std).min())) - draw(st.floats(0.0, 9.0))
    hi = float(np.ceil((mean + k * std).max())) + draw(st.floats(1.0, 9.0))
    return (x0, x1, y0, y1), lo, hi, k, mean, std, False


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(_panels(), st.booleans())
def test_decoded_points_are_the_fmt_of_each_coordinate(panel, labels):
    box, lo, hi, k, mean, std, ties = panel
    x0, x1, y0, y1 = box
    under, _, _, _ = _panel(box, lo, hi, k, mean.tobytes(), std.tobytes(),
                            labels)
    [series] = decode_series(
        f'<svg xmlns="http://www.w3.org/2000/svg">{under}</svg>')
    n = len(mean)
    xs = [x0 + (x1 - x0) * i / (n - 1) for i in range(n)]

    def sy(v):
        return y1 - (y1 - y0) * (v - lo) / (hi - lo)

    upper = [sy(m + k * s) for m, s in zip(mean.tolist(), std.tolist())]
    lower = [sy(m - k * s) for m, s in zip(mean.tolist(), std.tolist())]
    assert series["band"] == [(_at(x), _at(y)) for x, y in
                              zip(xs + xs[::-1], upper + lower[::-1])]
    if ties:
        assert all((v * 16) % 2 == 1 for v in xs + upper + lower)
    assert series["mean"] == [(_at(x), _at(sy(m)))
                              for x, m in zip(xs, mean.tolist())]


def test_ties_round_to_even():
    # the tie branch of _panels relies on these
    assert [_fmt(v) for v in (0.0625, 0.1875, -0.0625, 10.3125)] == \
        ["0.062", "0.188", "-0.062", "10.312"]


@st.composite
def _severities(draw):
    """A severity matrix of random shape: values below 0, above 1 and
    infinite, half-shade ties (odd multiples of 1/510: for 150 of the 255
    of them 255 * (1 - s) is exactly a half), NaN cells and all-NaN
    rows."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 120))
    value = st.one_of(
        st.floats(-2.0, 3.0),
        st.sampled_from([-0.0, 0.0, 1.0, np.inf, -np.inf, np.nan]),
        st.integers(0, 254).map(lambda i: (2 * i + 1) / 510.0))
    matrix = np.array(draw(st.lists(value, min_size=rows * cols,
                                    max_size=rows * cols)),
                      dtype=float).reshape(rows, cols)
    for r in draw(st.lists(st.integers(0, rows - 1), max_size=rows)):
        matrix[r] = np.nan
    return matrix


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(_severities())
def test_decoded_heatmap_colours_are_the_reference(matrix):
    names = [f"j{r}" for r in range(len(matrix))]
    doc = render_heatmap(matrix, names)
    assert decode_heatmap(doc.svg) == reference_heatmap(matrix)
    assert doc.sidecar["blank_rows"] == [
        n for n, row in zip(names, matrix) if np.isnan(row).all()]
