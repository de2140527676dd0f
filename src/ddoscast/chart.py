"""Standalone SVG line charts, no plotting dependency.

Output bytes are a pure function of the input (no timestamps, fixed
geometry), one ``<polyline>`` per data series; axes, grid and legend use
``<line>``/``<text>`` so polyline count equals series count.
"""

from __future__ import annotations

import math

from .errors import EmptySeriesError, LengthMismatchError, NonFiniteStateError

WIDTH = 960
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

PLOT_X0 = MARGIN_LEFT
PLOT_X1 = WIDTH - MARGIN_RIGHT
PLOT_Y0 = MARGIN_TOP
PLOT_Y1 = HEIGHT - MARGIN_BOTTOM

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _element(tag: str, body: str | None = None, **attrs) -> str:
    """One element's markup: ``attrs`` in the order given, ``_`` in a name written ``-``.

    Without a ``body`` the element closes itself.
    """
    head = "".join(f' {name.replace("_", "-")}="{value}"' for name, value in attrs.items())
    return f"<{tag}{head}/>" if body is None else f"<{tag}{head}>{body}</{tag}>"


def _text(body: str, size: int, **position) -> str:
    return _element("text", body, **position, font_family="sans-serif", font_size=size)


def render_line_chart(series_list, labels, title: str, x_labels=None) -> bytes:
    """Render aligned series as one SVG line chart.

    All series must share one length of at least two points; ``labels``
    names them in the legend. ``x_labels``, when given, annotates the first
    and last x positions (e.g. period keys). Values that are not finite, or
    that span too far to scale in float64, raise NonFiniteStateError.
    """
    if not series_list:
        raise EmptySeriesError("no series to plot")
    series = [[float(v) for v in s] for s in series_list]
    n = len(series[0])
    if n < 2:
        raise EmptySeriesError("series need at least 2 points")
    if any(len(s) != n for s in series):
        raise LengthMismatchError("series lengths differ")
    if len(labels) != len(series):
        raise LengthMismatchError("one label per series required")
    if x_labels is not None and len(x_labels) != n:
        raise LengthMismatchError("one x label per point required")

    vmin = min(min(s) for s in series)
    vmax = max(max(s) for s in series)
    span_x = PLOT_X1 - PLOT_X0
    span_y = PLOT_Y1 - PLOT_Y0
    # y_at scales a difference of values by span_y, so that product must stay in float64 too
    if not all(math.isfinite(v) for s in series for v in s) or math.isinf((vmax - vmin) * span_y):
        raise NonFiniteStateError("chart values must be finite and span what float64 can scale")
    if vmax == vmin:
        vmin -= 1.0
        vmax += 1.0

    def x_at(i: int) -> float:
        return PLOT_X0 + span_x * i / (n - 1)

    def y_at(v: float) -> float:
        return PLOT_Y1 - span_y * (v - vmin) / (vmax - vmin)

    parts = [
        _element("rect", x=0, y=0, width=WIDTH, height=HEIGHT, fill="white"),
        _text(_escape(title), 16, x=WIDTH // 2, y=24, text_anchor="middle"),
    ]

    # y grid + tick labels
    ticks = 4
    for k in range(ticks + 1):
        v = vmin + (vmax - vmin) * k / ticks
        y = y_at(v)
        parts.append(_element("line", x1=PLOT_X0, y1=_fmt(y), x2=PLOT_X1, y2=_fmt(y),
                              stroke="#dddddd", stroke_width=1))
        parts.append(_text(f"{v:.4g}", 11, x=PLOT_X0 - 8, y=_fmt(y + 4), text_anchor="end"))

    # axes: y, then x
    for x2, y1 in ((PLOT_X0, PLOT_Y0), (PLOT_X1, PLOT_Y1)):
        parts.append(_element("line", x1=PLOT_X0, y1=y1, x2=x2, y2=PLOT_Y1,
                              stroke="black", stroke_width=1))

    # x tick labels: first and last point (period keys when provided)
    ends = x_labels if x_labels is not None else (0, n - 1)
    for x, anchor, label in ((PLOT_X0, "start", ends[0]), (PLOT_X1, "end", ends[-1])):
        parts.append(_text(_escape(str(label)), 11, x=x, y=PLOT_Y1 + 18, text_anchor=anchor))

    # data
    for idx, values in enumerate(series):
        points = " ".join(f"{_fmt(x_at(i))},{_fmt(y_at(v))}" for i, v in enumerate(values))
        parts.append(_element("polyline", fill="none", stroke=PALETTE[idx % len(PALETTE)],
                              stroke_width=1.5, points=points))

    # legend, top-right inside the plot
    for idx, label in enumerate(labels):
        ly = PLOT_Y0 + 14 + 16 * idx
        parts.append(_element("line", x1=PLOT_X1 - 150, y1=ly, x2=PLOT_X1 - 126, y2=ly,
                              stroke=PALETTE[idx % len(PALETTE)], stroke_width=2))
        parts.append(_text(_escape(str(label)), 12, x=PLOT_X1 - 120, y=ly + 4))

    svg = _element("svg", "\n" + "\n".join(parts) + "\n", xmlns="http://www.w3.org/2000/svg",
                   width=WIDTH, height=HEIGHT, viewBox=f"0 0 {WIDTH} {HEIGHT}")
    return svg.encode("utf-8")
