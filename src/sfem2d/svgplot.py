"""Minimal static SVG emitter for log-log convergence plots.

No plotting dependency: axes, decade ticks, gridlines, one polyline per
series, and free-form annotation text. Output is deterministic for a
given input (fixed float formatting).
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 40, 60

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _decades(lo, hi):
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0 ** k for k in range(first, last + 1)]


def _fmt(v):
    return f"{v:.2f}"


class _LogAxis:
    def __init__(self, values, pixel_lo, pixel_hi):
        lo, hi = min(values), max(values)
        if lo <= 0:
            raise ValueError("log axis needs positive values")
        pad = (math.log10(hi) - math.log10(lo)) * 0.08 or 0.5
        self.lo = math.log10(lo) - pad
        self.hi = math.log10(hi) + pad
        self.pixel_lo = pixel_lo
        self.pixel_hi = pixel_hi

    def __call__(self, v):
        t = (math.log10(v) - self.lo) / (self.hi - self.lo)
        return self.pixel_lo + t * (self.pixel_hi - self.pixel_lo)

    def ticks(self):
        return [
            t for t in _decades(10.0 ** self.lo, 10.0 ** self.hi)
            if self.lo <= math.log10(t) <= self.hi
        ]


def loglog_svg(series, xlabel, ylabel, title="", annotations=()):
    """Render series = [(label, xs, ys), ...] as an SVG string."""
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    ax = _LogAxis(all_x, MARGIN_L, WIDTH - MARGIN_R)
    ay = _LogAxis(all_y, HEIGHT - MARGIN_B, MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
        f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" '
        'fill="none" stroke="black"/>',
    ]
    for t in ax.ticks():
        x = ax(t)
        parts += [f'<line x1="{_fmt(x)}" y1="{MARGIN_T}" x2="{_fmt(x)}" '
                  f'y2="{HEIGHT - MARGIN_B}" stroke="#dddddd"/>',
                  f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_B + 18}" '
                  f'text-anchor="middle" font-size="12">{t:g}</text>']
    for t in ay.ticks():
        y = ay(t)
        parts += [f'<line x1="{MARGIN_L}" y1="{_fmt(y)}" '
                  f'x2="{WIDTH - MARGIN_R}" y2="{_fmt(y)}" stroke="#dddddd"/>',
                  f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" '
                  f'text-anchor="end" font-size="12">{t:g}</text>']
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{_fmt(ax(x))},{_fmt(ay(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts += [f'<circle cx="{_fmt(ax(x))}" cy="{_fmt(ay(y))}" r="3" '
                  f'fill="{color}"/>' for x, y in zip(xs, ys)]
        parts.append(f'<text x="{WIDTH - MARGIN_R - 8}" '
                     f'y="{MARGIN_T + 18 + 16 * i}" text-anchor="end" '
                     f'font-size="12" fill="{color}">{label}</text>')
    if title:
        parts.append(f'<text x="{WIDTH // 2}" y="{MARGIN_T - 14}" '
                     f'text-anchor="middle" font-size="14">{title}</text>')
    parts += [f'<text x="{WIDTH // 2}" y="{HEIGHT - 16}" '
              f'text-anchor="middle" font-size="13">{xlabel}</text>',
              f'<text x="20" y="{HEIGHT // 2}" text-anchor="middle" '
              f'font-size="13" transform="rotate(-90 20 {HEIGHT // 2})">'
              f'{ylabel}</text>']
    parts += [f'<text x="{MARGIN_L + 10}" y="{MARGIN_T + 18 + 16 * i}" '
              f'font-size="12">{note}</text>'
              for i, note in enumerate(annotations)]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_loglog_svg(path, series, xlabel, ylabel, title="", annotations=()):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(loglog_svg(series, xlabel, ylabel, title, annotations))
