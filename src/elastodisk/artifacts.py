"""Deterministic artifact writers: CSV tables, run manifests, best-effort SVG.

CSV is the contract: fixed column order, fixed row order, every float
rendered with 17 significant digits, newline "\n".  The SVG emitters render
the same tables for quick eyeballing and are deliberately minimal.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path
from typing import Iterable, Sequence


def fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, complex):
        return f"{format(x.real, '.17g')}{'+' if x.imag >= 0 else '-'}{format(abs(x.imag), '.17g')}j"
    return str(x)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def _nonfinite_to_null(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, dict):
        return {k: _nonfinite_to_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_nonfinite_to_null(x) for x in v]
    return v


def write_json(path: Path, data) -> Path:
    """Strict JSON (NaN and +-inf written as null), sorted keys, indent 2."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(
        _nonfinite_to_null(data), indent=2, sort_keys=True, allow_nan=False
    )
    path.write_text(text + "\n", encoding="ascii")
    return path


def config_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


class ManifestWriter:
    """Collects run metadata; guaranteed to be written even on failures."""

    def __init__(self, out_dir: Path, command: str, config_raw: bytes):
        from . import __version__

        self.path = Path(out_dir) / "manifest.json"
        self.data = {
            "command": command,
            "config_sha256": config_digest(config_raw),
            "library_version": __version__,
            "status": None,
            "wall_time_s": None,
            "outputs": [],
            "error": None,
        }
        self._t0 = time.monotonic()

    def add_output(self, path: Path) -> None:
        self.data["outputs"].append(str(path))

    def finish(self, status: int, error: str | None = None) -> None:
        self.data["status"] = status
        self.data["error"] = error
        self.data["wall_time_s"] = round(time.monotonic() - self._t0, 6)
        write_json(self.path, self.data)


def _svg_header(w: int, h: int) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]


def write_line_svg(
    path: Path,
    xs: Sequence[float],
    ys: Sequence[float],
    log_y: bool = False,
    title: str = "",
    size: tuple[int, int] = (640, 420),
) -> Path:
    """Single polyline plot; nonpositive ys are dropped when log_y."""
    w, h = size
    pad = 48
    pts = [
        (x, y)
        for x, y in zip(xs, ys)
        if math.isfinite(x) and math.isfinite(y) and (not log_y or y > 0)
    ]
    lines = _svg_header(w, h)
    if pts:
        pxs = [p[0] for p in pts]
        pys = [math.log10(p[1]) if log_y else p[1] for p in pts]
        x0, x1 = min(pxs), max(pxs)
        y0, y1 = min(pys), max(pys)
        sx = (w - 2 * pad) / ((x1 - x0) or 1.0)
        sy = (h - 2 * pad) / ((y1 - y0) or 1.0)
        coords = " ".join(
            f"{pad + (x - x0) * sx:.2f},{h - pad - (y - y0) * sy:.2f}"
            for x, y in zip(pxs, pys)
        )
        lines.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f4e96" stroke-width="1.5"/>'
        )
        lines.append(
            f'<rect x="{pad}" y="{pad}" width="{w - 2 * pad}" height="{h - 2 * pad}" '
            f'fill="none" stroke="#444"/>'
        )
        for label, x, y, anchor in (
            (fmt(float(x0)), pad, h - pad + 16, "start"),
            (fmt(float(x1)), w - pad, h - pad + 16, "end"),
        ):
            lines.append(
                f'<text x="{x}" y="{y}" font-size="11" text-anchor="{anchor}" '
                f'font-family="monospace">{label}</text>'
            )
    if title:
        lines.append(
            f'<text x="{w // 2}" y="20" font-size="13" text-anchor="middle" '
            f'font-family="monospace">{title}</text>'
        )
    lines.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def write_heatmap_svg(
    path: Path,
    xs: Sequence[float],
    ys: Sequence[float],
    values: Sequence[float],
    title: str = "",
    cell: int = 6,
) -> Path:
    """Scatter heat map on a regular-ish grid: one rect per sample."""
    finite = [v for v in values if math.isfinite(v)]
    vmax = max(finite) if finite else 1.0
    vmin = min(finite) if finite else 0.0
    span = (vmax - vmin) or 1.0
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w, h = 640, 640
    pad = 40
    sx = (w - 2 * pad) / ((x1 - x0) or 1.0)
    sy = (h - 2 * pad) / ((y1 - y0) or 1.0)
    lines = _svg_header(w, h)
    for x, y, v in zip(xs, ys, values):
        if not math.isfinite(v):
            continue
        t = (v - vmin) / span
        r = int(255 * t)
        b = int(255 * (1.0 - t))
        cx = pad + (x - x0) * sx
        cy = h - pad - (y - y0) * sy
        lines.append(
            f'<rect x="{cx - cell / 2:.1f}" y="{cy - cell / 2:.1f}" width="{cell}" '
            f'height="{cell}" fill="rgb({r},60,{b})"/>'
        )
    if title:
        lines.append(
            f'<text x="{w // 2}" y="20" font-size="13" text-anchor="middle" '
            f'font-family="monospace">{title}</text>'
        )
    lines.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path
