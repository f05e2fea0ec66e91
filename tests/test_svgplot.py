import xml.etree.ElementTree as ET

import numpy as np
import pytest

from compact_tik.svgplot import render_plot


def class_elements(svg, cls):
    root = ET.fromstring(svg)
    return [el for el in root.iter() if cls in el.get("class", "").split()]


@pytest.mark.parametrize("exponent", [np.nan, np.inf, -np.inf])
def test_non_finite_reference_exponent_rejected(exponent):
    with pytest.raises(ValueError, match="^reference_exponent must be finite"):
        render_plot({"m": ([0.1, 0.01], [1.0, 0.5], [0.0, 0.0])}, exponent)


def test_single_method_element_counts():
    deltas = np.logspace(-3, -1, 6)
    svg = render_plot({"tikhonov": (deltas, deltas**0.5, 0.1 * deltas**0.5)}, 2.0 / 3.0)
    polylines = class_elements(svg, "series")
    assert len(polylines) == 1
    assert "method-tikhonov" in polylines[0].get("class")
    errorbars = class_elements(svg, "errorbar")
    assert len(errorbars) == 6
    reference = class_elements(svg, "reference")
    assert len(reference) == 1
    assert reference[0].get("stroke-dasharray")


def test_two_methods_distinct_styles():
    deltas = np.logspace(-3, -1, 4)
    zeros = np.zeros_like(deltas)
    svg = render_plot({"tikhonov": (deltas, deltas**0.5, zeros),
                       "nn": (deltas, 0.5 * deltas**0.5, zeros)}, 2.0 / 3.0)
    polylines = class_elements(svg, "series")
    assert len(polylines) == 2
    classes = {p.get("class") for p in polylines}
    assert classes == {"series method-tikhonov", "series method-nn"}
    strokes = {p.get("stroke") for p in polylines}
    assert len(strokes) == 2


def test_axis_labels_present():
    svg = render_plot({"m": ([0.1, 0.01], [1.0, 0.5], [0.0, 0.0])}, 0.5)
    xlabel = class_elements(svg, "xlabel")
    ylabel = class_elements(svg, "ylabel")
    assert xlabel[0].text == "delta"
    assert ylabel[0].text == "error"


def test_reference_overlays_exact_power_law_data():
    # data exactly on err = c * delta^(2/3): the dashed line must pass
    # through the data points within 1 px
    exponent = 2.0 / 3.0
    deltas = np.logspace(-4, -1, 7)
    svg = render_plot({"m": (deltas, 3.0 * deltas**exponent, np.zeros_like(deltas))}, exponent)
    ref = class_elements(svg, "reference")[0]
    x1, y1 = float(ref.get("x1")), float(ref.get("y1"))
    x2, y2 = float(ref.get("x2")), float(ref.get("y2"))
    series = class_elements(svg, "series")[0]
    for pair in series.get("points").split():
        px, py = (float(t) for t in pair.split(","))
        # vertical distance between the data point and the reference line
        t = (px - x1) / (x2 - x1)
        y_line = y1 + t * (y2 - y1)
        assert abs(py - y_line) <= 1.0


def test_zero_std_bars_are_points():
    svg = render_plot({"m": ([0.1, 0.01], [1.0, 0.3], [0.0, 0.0])}, 0.5)
    for bar in class_elements(svg, "errorbar"):
        assert bar.get("y1") == bar.get("y2")


def test_method_names_with_markup_characters_stay_well_formed():
    method = 'a"b<&c'
    svg = render_plot({method: ([0.1, 0.01], [1.0, 0.5], [0.1, 0.0])}, 0.5)
    assert [el.get("class") for el in class_elements(svg, "series")] == [f"series method-{method}"]
    assert len(class_elements(svg, "errorbar")) == 2


def test_tied_deltas_keep_row_order():
    # points sort by delta alone; sorting whole points would put the smaller mean first
    svg = render_plot({"m": ([0.1, 0.1, 0.01], [2.0, 1.0, 0.5], [0.0, 0.0, 0.0])}, 0.5)
    ys = [float(p.split(",")[1]) for p in class_elements(svg, "series")[0].get("points").split()]
    assert ys[1] < ys[2]  # SVG's y axis points down: the mean 2.0 is drawn above 1.0


def test_single_point_widens_both_axes_by_half_a_decade():
    svg = render_plot({"m": ([0.1], [1.0], [0.0])}, 0.5)
    assert class_elements(svg, "series")[0].get("points") == "348.00,224.00"
    assert [el.text for el in class_elements(svg, "xticklabel")] == ["1e-1"]
    assert [el.text for el in class_elements(svg, "yticklabel")] == ["1e0"]


def test_bar_reaching_zero_ends_at_a_thousandth_of_its_mean():
    # the lower end 1.0 * 1e-3 sets the bottom of the axes box, the upper end 2.0 its top
    svg = render_plot({"m": ([0.1, 0.01], [1.0, 0.5], [1.0, 0.0])}, 0.5)
    bar = class_elements(svg, "errorbar")[1]
    assert (bar.get("y1"), bar.get("y2")) == ("424.00", "24.00")


def test_x_ticks_mark_every_decade_in_range():
    deltas = np.logspace(-3, -1, 5)
    svg = render_plot({"m": (deltas, deltas**0.5, np.zeros_like(deltas))}, 0.5)
    assert [el.text for el in class_elements(svg, "xticklabel")] == ["1e-3", "1e-2", "1e-1"]
