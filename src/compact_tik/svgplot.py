"""Standalone SVG rendering of error-versus-noise charts; the caller writes the text.

Hand-rolled SVG keeps the output deterministic and assertable: tests can
parse coordinates back out of the text. Axes are log-log (base 10); each
method contributes one polyline plus one vertical error bar per point;
the reference power law is a single dashed line anchored through the
least-squares intercept of the plotted means at a fixed exponent.
"""

from __future__ import annotations

import html
import math

WIDTH, HEIGHT = 640, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 80, 24, 24, 56

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _log_axis(values, start, length, flip):
    """Decade range of ``values`` and the map from a value to its pixel on one axis.

    The range runs from the smallest to the largest log10 value, widened by
    half a decade on each side when they coincide. The axis covers
    ``length`` pixels from ``start``; ``flip`` puts the largest value at
    ``start``, as on SVG's downward y axis.
    """
    logs = [math.log10(v) for v in values]
    lo, hi = min(logs), max(logs)
    if hi - lo < 1e-9:
        lo, hi = lo - 0.5, hi + 0.5

    def pixel(v):
        offset = hi - math.log10(v) if flip else math.log10(v) - lo
        return start + offset / (hi - lo) * length

    return lo, hi, pixel


def _fmt(v):
    return f"{v:.2f}"


def render_plot(rows, reference_exponent):
    """Render an aggregate table to SVG text.

    Parameters
    ----------
    rows : sequence of (delta, mean_error, std_error, method)
        One point per (delta, method); all finite, deltas and means positive,
        stds nonnegative.
    reference_exponent : float
        Finite slope of the dashed log-log reference line; its intercept is the
        least-squares fit over all plotted means at this fixed slope.

    Returns
    -------
    str
        A standalone SVG document.
    """
    if not math.isfinite(reference_exponent):
        raise ValueError(f"reference_exponent must be finite, got {reference_exponent}")
    series = {}
    for delta, mean, std, method in rows:
        # the comparisons are False for NaN, so NaN is rejected too
        if not (0 < delta < math.inf and 0 < mean < math.inf and 0 <= std < math.inf):
            raise ValueError("deltas and mean errors must be positive and finite, "
                             "stds finite and nonnegative")
        mean, std = float(mean), float(std)
        # a log axis cannot reach zero, so a bar that would ends at a thousandth of its mean
        lower = mean - std
        series.setdefault(method, []).append(
            (float(delta), mean, lower if lower > 0 else mean * 1e-3, mean + std))
    if not series:
        raise ValueError("cannot plot an empty table")
    for pts in series.values():
        pts.sort(key=lambda p: p[0])
    points = [p for pts in series.values() for p in pts]

    # the frame covers every mean and both ends of every bar
    x0, y0 = MARGIN_LEFT, MARGIN_TOP
    x1, y1 = WIDTH - MARGIN_RIGHT, HEIGHT - MARGIN_BOTTOM
    dlo, dhi, px = _log_axis([d for d, *_ in points], x0, x1 - x0, flip=False)
    elo, ehi, py = _log_axis([v for p in points for v in p[1:]], y0, y1 - y0, flip=True)

    # reference intercept: least squares at fixed slope over all means
    e = reference_exponent
    resid = [math.log10(m) - e * math.log10(d) for d, m, *_ in points]
    c = sum(resid) / len(resid)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(
        f'<rect class="axes" x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
        f'fill="none" stroke="black"/>'
    )
    # decade ticks
    for k in range(math.ceil(dlo), math.floor(dhi) + 1):
        x = _fmt(px(10.0**k))
        out.append(
            f'<line class="xtick" x1="{x}" y1="{y1}" x2="{x}" y2="{y1 + 6}" stroke="black"/>'
        )
        out.append(
            f'<text class="xticklabel" x="{x}" y="{y1 + 20}" text-anchor="middle" '
            f'font-size="12">1e{k}</text>'
        )
    for k in range(math.ceil(elo), math.floor(ehi) + 1):
        y = py(10.0**k)
        out.append(
            f'<line class="ytick" x1="{x0 - 6}" y1="{_fmt(y)}" x2="{x0}" y2="{_fmt(y)}" stroke="black"/>'
        )
        out.append(
            f'<text class="yticklabel" x="{x0 - 10}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-size="12">1e{k}</text>'
        )
    # axis labels
    out.append(
        f'<text class="xlabel" x="{(x0 + x1) / 2:.2f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="14">delta</text>'
    )
    out.append(
        f'<text class="ylabel" x="18" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 18 {(y0 + y1) / 2:.2f})">error</text>'
    )
    # dashed reference line across the x-range
    out.append(
        f'<line class="reference" x1="{_fmt(px(10.0**dlo))}" y1="{_fmt(py(10.0 ** (e * dlo + c)))}" '
        f'x2="{_fmt(px(10.0**dhi))}" y2="{_fmt(py(10.0 ** (e * dhi + c)))}" '
        f'stroke="black" stroke-dasharray="6,4"/>'
    )
    # one polyline + error bars per method
    for idx, (method, pts) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        method = html.escape(str(method), quote=True)
        for d, _, lower, upper in pts:
            out.append(
                f'<line class="errorbar method-{method}" x1="{_fmt(px(d))}" '
                f'y1="{_fmt(py(lower))}" x2="{_fmt(px(d))}" y2="{_fmt(py(upper))}" '
                f'stroke="{color}"/>'
            )
        line = " ".join(f"{_fmt(px(d))},{_fmt(py(m))}" for d, m, *_ in pts)
        out.append(
            f'<polyline class="series method-{method}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" points="{line}"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
