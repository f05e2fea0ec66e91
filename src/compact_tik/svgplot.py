"""Standalone SVG emission for error-versus-noise charts.

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


class _LogLogFrame:
    """Maps (log10 x, log10 y) into pixel coordinates."""

    def __init__(self, xs, ys):
        lx = [math.log10(x) for x in xs]
        ly = [math.log10(y) for y in ys]
        self.x0, self.x1 = min(lx), max(lx)
        self.y0, self.y1 = min(ly), max(ly)
        if self.x1 - self.x0 < 1e-9:
            self.x0 -= 0.5
            self.x1 += 0.5
        if self.y1 - self.y0 < 1e-9:
            self.y0 -= 0.5
            self.y1 += 0.5
        self.plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        self.plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(self, x):
        return MARGIN_LEFT + (math.log10(x) - self.x0) / (self.x1 - self.x0) * self.plot_w

    def py(self, y):
        return MARGIN_TOP + (self.y1 - math.log10(y)) / (self.y1 - self.y0) * self.plot_h


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
    rows = list(rows)
    if not rows:
        raise ValueError("cannot plot an empty table")
    series = {}
    for delta, mean, std, method in rows:
        # the comparisons are False for NaN, so NaN is rejected too
        if not (0 < delta < math.inf and 0 < mean < math.inf and 0 <= std < math.inf):
            raise ValueError("deltas and mean errors must be positive and finite, "
                             "stds finite and nonnegative")
        series.setdefault(method, []).append((float(delta), float(mean), float(std)))
    for pts in series.values():
        pts.sort(key=lambda p: p[0])

    # frame covers means and positive error-bar ends
    xs, ys = [], []
    for pts in series.values():
        for d, m, s in pts:
            xs.append(d)
            ys.append(m)
            ys.append(m + s)
            lo = m - s
            ys.append(lo if lo > 0 else m * 1e-3)
    frame = _LogLogFrame(xs, ys)

    # reference intercept: least squares at fixed slope over all means
    e = reference_exponent
    resid = [math.log10(m) - e * math.log10(d) for pts in series.values() for d, m, _ in pts]
    c = sum(resid) / len(resid)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    # axes box
    x0, y0 = MARGIN_LEFT, MARGIN_TOP
    x1, y1 = WIDTH - MARGIN_RIGHT, HEIGHT - MARGIN_BOTTOM
    out.append(
        f'<rect class="axes" x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
        f'fill="none" stroke="black"/>'
    )
    # decade ticks
    for k in range(math.ceil(frame.x0), math.floor(frame.x1) + 1):
        px = frame.px(10.0**k)
        out.append(
            f'<line class="xtick" x1="{_fmt(px)}" y1="{y1}" x2="{_fmt(px)}" y2="{y1 + 6}" stroke="black"/>'
        )
        out.append(
            f'<text class="xticklabel" x="{_fmt(px)}" y="{y1 + 20}" text-anchor="middle" '
            f'font-size="12">1e{k}</text>'
        )
    for k in range(math.ceil(frame.y0), math.floor(frame.y1) + 1):
        py = frame.py(10.0**k)
        out.append(
            f'<line class="ytick" x1="{x0 - 6}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="black"/>'
        )
        out.append(
            f'<text class="yticklabel" x="{x0 - 10}" y="{_fmt(py + 4)}" text-anchor="end" '
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
    rx0, rx1 = 10.0**frame.x0, 10.0**frame.x1
    ry0 = 10.0 ** (e * frame.x0 + c)
    ry1 = 10.0 ** (e * frame.x1 + c)
    out.append(
        f'<line class="reference" x1="{_fmt(frame.px(rx0))}" y1="{_fmt(frame.py(ry0))}" '
        f'x2="{_fmt(frame.px(rx1))}" y2="{_fmt(frame.py(ry1))}" '
        f'stroke="black" stroke-dasharray="6,4"/>'
    )
    # one polyline + error bars per method
    for idx, (method, pts) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        method = html.escape(str(method), quote=True)
        for d, m, s in pts:
            hi = m + s
            lo = m - s
            if lo <= 0:
                lo = m * 1e-3
            out.append(
                f'<line class="errorbar method-{method}" x1="{_fmt(frame.px(d))}" '
                f'y1="{_fmt(frame.py(lo))}" x2="{_fmt(frame.px(d))}" y2="{_fmt(frame.py(hi))}" '
                f'stroke="{color}"/>'
            )
        points = " ".join(f"{_fmt(frame.px(d))},{_fmt(frame.py(m))}" for d, m, _ in pts)
        out.append(
            f'<polyline class="series method-{method}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" points="{points}"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_plot(path, rows, reference_exponent):
    """Write :func:`render_plot` output to a file."""
    svg = render_plot(rows, reference_exponent)
    with open(path, "w") as f:
        f.write(svg)
    return svg
