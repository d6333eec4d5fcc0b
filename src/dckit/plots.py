"""Deterministic CSV and SVG emission for objective curves and accuracy bars.

The SVG writer is intentionally minimal: fixed-precision coordinates and no
timestamps, so regenerating a plot from the same report is byte-identical.
"""
from __future__ import annotations

from pathlib import Path


def _fmt(v: float) -> str:
    return f"{v:.6f}"


_WIDTH, _HEIGHT = 640, 400  # every plot's frame, in pixels


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="10" y="18" font-family="monospace" font-size="13">{title}</text>',
    ]


def polyline_svg(values, path, title: str = "objective") -> None:
    """Line plot of a numeric series; an empty series yields an empty frame."""
    lines = _svg_header(title)
    vals = [float(v) for v in values]
    if vals:
        lo, hi = min(vals), max(vals)
        span = hi - lo if hi > lo else 1.0
        nx = max(len(vals) - 1, 1)
        pts = []
        for i, v in enumerate(vals):
            x = 40 + (_WIDTH - 60) * (i / nx)
            y = _HEIGHT - 30 - (_HEIGHT - 60) * ((v - lo) / span)
            pts.append(f"{_fmt(x)},{_fmt(y)}")
        lines.append(
            f'<polyline fill="none" stroke="black" stroke-width="1.5" points="{" ".join(pts)}"/>'
        )
        lines.append(
            f'<text x="10" y="{_HEIGHT - 8}" font-family="monospace" font-size="11">'
            f"min={_fmt(lo)} max={_fmt(hi)} n={len(vals)}</text>"
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")


def bar_svg(labels, values, path, title: str = "accuracy") -> None:
    """Bar plot over labeled values in [0, 1]-ish scale."""
    lines = _svg_header(title)
    vals = [float(v) for v in values]
    if vals:
        hi = max(max(vals), 1e-12)
        n = len(vals)
        bw = (_WIDTH - 80) / n
        for i, (lab, v) in enumerate(zip(labels, vals)):
            x = 40 + i * bw
            bh = (_HEIGHT - 80) * (v / hi)
            y = _HEIGHT - 40 - bh
            lines.append(
                f'<rect x="{_fmt(x + 4)}" y="{_fmt(y)}" width="{_fmt(bw - 8)}" '
                f'height="{_fmt(bh)}" fill="steelblue"/>'
            )
            lines.append(
                f'<text x="{_fmt(x + 4)}" y="{_HEIGHT - 24}" font-family="monospace" '
                f'font-size="10">{lab}</text>'
            )
            lines.append(
                f'<text x="{_fmt(x + 4)}" y="{_fmt(y - 4)}" font-family="monospace" '
                f'font-size="10">{_fmt(v)}</text>'
            )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")


def series_csv(values, path) -> None:
    with open(path, "w") as fh:
        fh.write("step,objective\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{float(v)!r}\n")


def bars_csv(labels, values, path) -> None:
    with open(path, "w") as fh:
        fh.write("label,value\n")
        for lab, v in zip(labels, values):
            fh.write(f"{lab},{float(v)!r}\n")
