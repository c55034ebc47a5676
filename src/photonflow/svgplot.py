"""Self-contained SVG plots with the plotted data embedded as a comment.

Deliberately dependency-free and deterministic so run artifacts are diffable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

WIDTH, HEIGHT = 860, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 75, 25, 45, 55
PALETTE = ("#5e3c99", "#e66101", "#1b7837", "#0571b0", "#ca0020")
MAX_POINTS = 1600


@dataclass
class Series:
    x: list
    y: list
    label: str = ""
    style: str = "line"  # line | points | dashed


def _nice_ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if mult * mag >= raw:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.3g}"
    return f"{v:g}"


def _downsample(x: list, y: list) -> tuple[list, list]:
    if len(x) <= MAX_POINTS:
        return x, y
    step = len(x) / MAX_POINTS
    idx = [int(i * step) for i in range(MAX_POINTS)]
    return [x[i] for i in idx], [y[i] for i in idx]


def write_svg_plot(
    path: str | Path,
    series: list[Series],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    series = [
        Series(*_downsample(list(s.x), list(s.y)), label=s.label, style=s.style)
        for s in series
        if len(s.x)
    ]
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    if not xs:
        xs, ys = [0, 1], [0, 1]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(min(ys), 0.0), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1
    y_hi += 0.05 * (y_hi - y_lo)

    def sx(v: float) -> float:
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(v: float) -> float:
        return HEIGHT - MARGIN_B - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="25" text-anchor="middle" font-size="16">{title}</text>',
    ]

    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        out.append(f'<line x1="{px:.1f}" y1="{HEIGHT - MARGIN_B}" x2="{px:.1f}" y2="{MARGIN_T}" stroke="#eeeeee"/>')
        out.append(
            f'<text x="{px:.1f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" font-size="11">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        out.append(f'<line x1="{MARGIN_L}" y1="{py:.1f}" x2="{WIDTH - MARGIN_R}" y2="{py:.1f}" stroke="#eeeeee"/>')
        out.append(
            f'<text x="{MARGIN_L - 6}" y="{py + 4:.1f}" text-anchor="end" font-size="11">{_fmt(t)}</text>'
        )
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="#333333"/>'
    )
    out.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="13">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {(MARGIN_T + HEIGHT - MARGIN_B) / 2})">{ylabel}</text>'
    )

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = [(sx(xv), sy(yv)) for xv, yv in zip(s.x, s.y)]
        if s.style == "points":
            out.extend(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" fill="{color}"/>' for px, py in pts)
        else:
            dash = ' stroke-dasharray="7 5"' if s.style == "dashed" else ""
            poly = " ".join(f"{px:.1f},{py:.1f}" for px, py in pts)
            out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.6"{dash} points="{poly}"/>')
        if s.label:
            ly = MARGIN_T + 16 + 17 * i
            out.append(
                f'<line x1="{WIDTH - 205}" y1="{ly - 4}" x2="{WIDTH - 180}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="3"/>'
            )
            out.append(f'<text x="{WIDTH - 173}" y="{ly}" font-size="12">{s.label}</text>')

    # embedded data table ('--' is not legal inside an XML comment)
    rows = ["series,x,y"]
    for i, s in enumerate(series):
        name = (s.label or f"series{i}").replace(",", "_")
        rows.extend(f"{name},{_fmt(xv)},{_fmt(yv)}" for xv, yv in zip(s.x, s.y))
    table = "\n".join(rows).replace("--", "- -")
    out.append(f"<!-- data\n{table}\n-->")
    out.append("</svg>")
    Path(path).write_text("\n".join(out))
