"""Minimal self-contained SVG charts (lines, scatters, optional log axis).

CSV files are the canonical benchmark artifact; these figures are a
convenience view that avoids any plotting dependency.  Output is plain text
and deterministic for identical inputs.
"""

import math
from dataclasses import dataclass

__all__ = ["Series", "render_chart", "PALETTE"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_WIDTH, _HEIGHT = 720, 480
_MARGIN = {"left": 74.0, "right": 18.0, "top": 38.0, "bottom": 52.0}
_FONT = 'font-family="Helvetica,Arial,sans-serif"'


@dataclass
class Series:
    label: str
    x: list
    y: list
    style: str = "line"  # "line" | "dashed" | "scatter"


def _finite_points(series, ylog):
    pts = []
    for sx, sy in zip(series.x, series.y):
        fx, fy = float(sx), float(sy)
        if not (math.isfinite(fx) and math.isfinite(fy)):
            continue
        if ylog and fy <= 0.0:
            continue
        pts.append((fx, math.log10(fy) if ylog else fy))
    return pts


def _nice_ticks(lo, hi):
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5  # about five ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks, t = [], first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _decade_ticks(lo, hi):
    first, last = math.ceil(lo - 1e-9), math.floor(hi + 1e-9)
    if last < first:
        return [lo]
    step = max(1, (last - first) // 8 + 1)
    return [float(d) for d in range(first, last + 1, step)]


def _text(value) -> str:
    """``value`` as SVG text content: ``&``, ``<`` and ``>`` escaped."""
    return str(value).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_chart(path, series, title="", xlabel="", ylabel="", ylog=False):
    """Write a chart of the given :class:`Series` list to ``path``; the
    title, axis labels and series labels are written as escaped text."""
    series = list(series)
    pointsets = [_finite_points(s, ylog) for s in series]
    allpts = [p for pts in pointsets for p in pts]
    if allpts:
        xs = [p[0] for p in allpts]
        ys = [p[1] for p in allpts]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_pad = 0.04 * (x_hi - x_lo)
    y_pad = 0.04 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _WIDTH - _MARGIN["left"] - _MARGIN["right"]
    plot_h = _HEIGHT - _MARGIN["top"] - _MARGIN["bottom"]

    def px(v):
        return _MARGIN["left"] + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return _MARGIN["top"] + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
               f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">')
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')

    x_ticks = _nice_ticks(x_lo, x_hi)
    y_ticks = _decade_ticks(y_lo, y_hi) if ylog else _nice_ticks(y_lo, y_hi)
    for t in x_ticks:
        gx = px(t)
        out.append(f'<line x1="{gx:.2f}" y1="{py(y_lo):.2f}" x2="{gx:.2f}" '
                   f'y2="{py(y_hi):.2f}" stroke="#e4e4e4" stroke-width="1"/>')
        out.append(f'<text x="{gx:.2f}" y="{py(y_lo) + 18:.2f}" {_FONT} '
                   f'font-size="11" text-anchor="middle">{t:.4g}</text>')
    for t in y_ticks:
        gy = py(t)
        label = f"1e{int(round(t))}" if ylog else f"{t:.4g}"
        out.append(f'<line x1="{px(x_lo):.2f}" y1="{gy:.2f}" x2="{px(x_hi):.2f}" '
                   f'y2="{gy:.2f}" stroke="#e4e4e4" stroke-width="1"/>')
        out.append(f'<text x="{px(x_lo) - 6:.2f}" y="{gy + 4:.2f}" {_FONT} '
                   f'font-size="11" text-anchor="end">{label}</text>')
    out.append(f'<rect x="{px(x_lo):.2f}" y="{py(y_hi):.2f}" '
               f'width="{px(x_hi) - px(x_lo):.2f}" height="{py(y_lo) - py(y_hi):.2f}" '
               f'fill="none" stroke="#444" stroke-width="1"/>')

    for idx, (s, pts) in enumerate(zip(series, pointsets)):
        color = PALETTE[idx % len(PALETTE)]
        if s.style == "scatter":
            for fx, fy in pts:
                out.append(f'<circle cx="{px(fx):.2f}" cy="{py(fy):.2f}" r="3" '
                           f'fill="{color}" fill-opacity="0.75"/>')
        elif pts:
            coords = " ".join(f"{px(fx):.2f},{py(fy):.2f}" for fx, fy in pts)
            dash = ' stroke-dasharray="7 4"' if s.style == "dashed" else ""
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       f'stroke-width="1.6"{dash}/>')

    legend_x = _WIDTH - _MARGIN["right"] - 170
    legend_y = _MARGIN["top"] + 8
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        row_y = legend_y + 16 * idx
        if s.style == "scatter":
            out.append(f'<circle cx="{legend_x + 12:.2f}" cy="{row_y - 3:.2f}" r="3" '
                       f'fill="{color}"/>')
        else:
            dash = ' stroke-dasharray="7 4"' if s.style == "dashed" else ""
            out.append(f'<line x1="{legend_x:.2f}" y1="{row_y - 4:.2f}" '
                       f'x2="{legend_x + 24:.2f}" y2="{row_y - 4:.2f}" '
                       f'stroke="{color}" stroke-width="2"{dash}/>')
        out.append(f'<text x="{legend_x + 30:.2f}" y="{row_y:.2f}" {_FONT} '
                   f'font-size="11">{_text(s.label)}</text>')

    if title:
        out.append(f'<text x="{_WIDTH / 2:.2f}" y="22" {_FONT} font-size="14" '
                   f'text-anchor="middle">{_text(title)}</text>')
    if xlabel:
        out.append(f'<text x="{_MARGIN["left"] + plot_w / 2:.2f}" '
                   f'y="{_HEIGHT - 12:.2f}" {_FONT} font-size="12" '
                   f'text-anchor="middle">{_text(xlabel)}</text>')
    if ylabel:
        cx, cy = 18.0, _MARGIN["top"] + plot_h / 2
        out.append(f'<text x="{cx:.2f}" y="{cy:.2f}" {_FONT} font-size="12" '
                   f'text-anchor="middle" transform="rotate(-90 {cx:.2f} {cy:.2f})">'
                   f'{_text(ylabel)}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(out) + "\n")
