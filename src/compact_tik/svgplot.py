"""Standalone SVG rendering of error-versus-noise charts; the caller writes the text.

``render_plot`` draws ``experiment.table_series``' dict as it is; that reader
checks every value. Hand-rolled SVG, every element but the ``<svg>`` tags
written by ``_tag``, keeps the output deterministic and assertable. Axes are
log-log (base 10); each method contributes one polyline plus one vertical
error bar per point; the reference power law is a single dashed line anchored
through the least-squares intercept of the plotted means at a fixed exponent.
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


def _tag(name, text, **attrs):
    """``<name a="v" .../>``, or ``<name ...>text</name>`` when ``text`` is not None.

    Attributes are spelled in call order, ``class_`` as ``class`` and every
    other ``_`` as ``-`` (``text_anchor`` as ``text-anchor``); every value and
    the text are XML-escaped.
    """
    spelled = "".join(f' {k.rstrip("_").replace("_", "-")}="{html.escape(str(v))}"'
                      for k, v in attrs.items())
    if text is None:
        return f"<{name}{spelled}/>"
    return f"<{name}{spelled}>{html.escape(text)}</{name}>"


def render_plot(series, reference_exponent):
    """Render an aggregate table's series to SVG text.

    Parameters
    ----------
    series : dict of method -> (deltas, mean_errors, std_errors)
        As ``experiment.table_series`` returns it, unchecked here: nonempty;
        deltas and means positive and finite, stds finite and nonnegative.
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
    # (delta, mean, bar bottom, bar top) per point, sorted by delta alone so tied deltas keep
    # row order; a log axis cannot reach zero, so a bar that would ends at a thousandth of its mean
    curves = {method: sorted(((d, m, m - s if m - s > 0 else m * 1e-3, m + s)
                              for d, m, s in zip(*columns)), key=lambda p: p[0])
              for method, columns in series.items()}
    points = [p for pts in curves.values() for p in pts]

    # the frame covers every mean and both ends of every bar
    x0, y0 = MARGIN_LEFT, MARGIN_TOP
    x1, y1 = WIDTH - MARGIN_RIGHT, HEIGHT - MARGIN_BOTTOM
    dlo, dhi, px = _log_axis([d for d, *_ in points], x0, x1 - x0, flip=False)
    elo, ehi, py = _log_axis([v for p in points for v in p[1:]], y0, y1 - y0, flip=True)

    # reference intercept: least squares at fixed slope over all means
    e = reference_exponent
    resid = [math.log10(m) - e * math.log10(d) for d, m, *_ in points]
    c = sum(resid) / len(resid)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        _tag("rect", None, width=WIDTH, height=HEIGHT, fill="white"),
        _tag("rect", None, class_="axes", x=x0, y=y0, width=x1 - x0, height=y1 - y0,
             fill="none", stroke="black"),
    ]
    # decade ticks
    for k in range(math.ceil(dlo), math.floor(dhi) + 1):
        x = _fmt(px(10.0**k))
        out.append(_tag("line", None, class_="xtick", x1=x, y1=y1, x2=x, y2=y1 + 6,
                        stroke="black"))
        out.append(_tag("text", f"1e{k}", class_="xticklabel", x=x, y=y1 + 20,
                        text_anchor="middle", font_size=12))
    for k in range(math.ceil(elo), math.floor(ehi) + 1):
        y = py(10.0**k)
        out.append(_tag("line", None, class_="ytick", x1=x0 - 6, y1=_fmt(y), x2=x0, y2=_fmt(y),
                        stroke="black"))
        out.append(_tag("text", f"1e{k}", class_="yticklabel", x=x0 - 10, y=_fmt(y + 4),
                        text_anchor="end", font_size=12))
    # axis labels
    out.append(_tag("text", "delta", class_="xlabel", x=_fmt((x0 + x1) / 2), y=HEIGHT - 12,
                    text_anchor="middle", font_size=14))
    ym = _fmt((y0 + y1) / 2)
    out.append(_tag("text", "error", class_="ylabel", x=18, y=ym, text_anchor="middle",
                    font_size=14, transform=f"rotate(-90 18 {ym})"))
    # dashed reference line across the x-range
    out.append(_tag("line", None, class_="reference",
                    x1=_fmt(px(10.0**dlo)), y1=_fmt(py(10.0 ** (e * dlo + c))),
                    x2=_fmt(px(10.0**dhi)), y2=_fmt(py(10.0 ** (e * dhi + c))),
                    stroke="black", stroke_dasharray="6,4"))
    # one polyline + error bars per method
    for idx, (method, pts) in enumerate(curves.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        for d, _, lower, upper in pts:
            out.append(_tag("line", None, class_=f"errorbar method-{method}",
                            x1=_fmt(px(d)), y1=_fmt(py(lower)), x2=_fmt(px(d)), y2=_fmt(py(upper)),
                            stroke=color))
        out.append(_tag("polyline", None, class_=f"series method-{method}", fill="none",
                        stroke=color, stroke_width=1.5,
                        points=" ".join(f"{_fmt(px(d))},{_fmt(py(m))}" for d, m, *_ in pts)))
    out.append("</svg>")
    return "\n".join(out) + "\n"
