"""Minimal SVG emission for time-series results.

No plotting dependency: panels are rectangles, series are <polyline>
elements (one per state coordinate per series), plus an input-trace
panel at the bottom. Output is deterministic: identical inputs give
identical bytes, which replace the file at the path only once they are
all written (``binfile.write_text``).
"""

from __future__ import annotations

import numpy as np

from .binfile import write_text
from .errors import ContractViolation

PANEL_W = 760
PANEL_H = 150
MARGIN_L = 60
MARGIN_R = 20
MARGIN_T = 40
PANEL_GAP = 28

TRUTH_STYLE = 'fill="none" stroke="#1f77b4" stroke-width="1.5"'
EST_STYLE = 'fill="none" stroke="#d62728" stroke-width="1.2" stroke-dasharray="5,3"'
INPUT_STYLE = 'fill="none" stroke="#2ca02c" stroke-width="1.2"'


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _polyline(xs, ys, style) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    return f'<polyline {style} points="{pts}" />'


def _scale(vals, lo_px, hi_px):
    vals = np.asarray(vals, dtype=np.float64)
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    if vmax - vmin < 1e-12:
        vmin -= 0.5
        vmax += 0.5
    span = vmax - vmin
    return vmin, vmax, lambda v: lo_px + (np.asarray(v) - vmin) / span * (hi_px - lo_px)


def svg_timeseries(path, times, truth, estimate, inputs=None, title="") -> None:
    """Write one figure: a panel per state coordinate, then the inputs.

    Each state panel holds exactly two polylines (truth, estimate); the
    input panel holds one polyline per input channel.
    """
    t = np.asarray(times, dtype=np.float64)
    x = np.asarray(truth, dtype=np.float64)
    xh = np.asarray(estimate, dtype=np.float64)
    u = None if inputs is None else np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape != xh.shape or len(t) != len(x):
        raise ContractViolation("truth and estimate must be (N+1, n_x) on the times")
    if u is not None and (u.ndim != 2 or len(u) != len(t)):
        raise ContractViolation("inputs must be (N+1, m) on the times")

    n_x = x.shape[1]
    n_panels = n_x + (1 if u is not None else 0)
    width = MARGIN_L + PANEL_W + MARGIN_R
    height = MARGIN_T + n_panels * (PANEL_H + PANEL_GAP)
    _, _, to_px_t = _scale(t, MARGIN_L, MARGIN_L + PANEL_W)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<text x="{MARGIN_L}" y="24" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
    ]

    def panel(idx, label, series):
        top = MARGIN_T + idx * (PANEL_H + PANEL_GAP)
        bot = top + PANEL_H
        allvals = np.concatenate([s for s, _ in series])
        vmin, vmax, to_px = _scale(allvals, bot, top)  # y grows downward
        parts.append(
            f'<rect x="{MARGIN_L}" y="{top}" width="{PANEL_W}" '
            f'height="{PANEL_H}" fill="none" stroke="#999" stroke-width="0.8"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 52}" y="{top + 12}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 52}" y="{top + 26}" font-family="sans-serif" '
            f'font-size="9">{_fmt(vmax)}</text>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 52}" y="{bot}" font-family="sans-serif" '
            f'font-size="9">{_fmt(vmin)}</text>'
        )
        for vals, style in series:
            parts.append(_polyline(to_px_t(t), to_px(vals), style))

    for i in range(n_x):
        panel(i, f"x{i + 1}", [(x[:, i], TRUTH_STYLE), (xh[:, i], EST_STYLE)])
    if u is not None:
        panel(n_x, "u", [(u[:, j], INPUT_STYLE) for j in range(u.shape[1])])

    last_bottom = MARGIN_T + n_panels * (PANEL_H + PANEL_GAP) - PANEL_GAP
    parts.append(
        f'<text x="{MARGIN_L + PANEL_W - 40}" y="{last_bottom + 16}" '
        f'font-family="sans-serif" font-size="10">t = {_fmt(t[-1])}</text>'
    )
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")


def plot_name(system: str, variant: str, regime: str) -> str:
    return f"{system}_{variant}_{regime}.svg"
