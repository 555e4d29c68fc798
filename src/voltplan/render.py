"""Deterministic SVG rendering of floorplans with shifters.

One stroked rectangle per room, one filled rectangle per module (color keyed
by voltage level from a fixed palette) and one small dark rectangle per
shifter. Element order and formatting are fixed so identical inputs give
byte-identical documents; the viewBox equals the chip bounds.
"""

from __future__ import annotations

PALETTE = (
    "#d94f4f",
    "#e8a33d",
    "#4f78d9",
    "#53b86e",
    "#9b59b6",
    "#2dbdb6",
    "#c2c24e",
    "#8a6d3b",
)
SHIFTER_FILL = "#1f1f1f"


def _rect(x, y, w, h, chip_h, style) -> str:
    # chip coordinates grow upward; svg grows downward
    return (
        f'<rect x="{x}" y="{chip_h - y - h}" width="{w}" height="{h}" {style}/>'
    )


def render_svg(floorplan, levels, shifter_rects) -> str:
    """Render a packed floorplan, its voltage levels and placed shifters.

    levels: one voltage level per room; shifter_rects: shifter id ->
    (x, y, w, h), drawn in id order. Shifters with zero size (bookkeeping
    fallback spots) are drawn 1x1.
    """
    chip_w, chip_h = floorplan.chip_w, floorplan.chip_h
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {chip_w} {chip_h}" width="{chip_w}" height="{chip_h}">'
    ]
    xs, ys = floorplan.xs, floorplan.ys
    for x, y, w, h in zip(xs, ys, floorplan.ws, floorplan.hs):
        parts.append(
            _rect(x, y, w, h, chip_h, 'fill="none" stroke="#555" stroke-width="0.3"')
        )
    for x, y, (mw, mh), level in zip(xs, ys, floorplan.dims, levels):
        color = PALETTE[(level - 1) % len(PALETTE)]
        parts.append(
            _rect(
                x, y, mw, mh, chip_h,
                f'fill="{color}" stroke="#000" stroke-width="0.2"',
            )
        )
    for sid in sorted(shifter_rects):
        x, y, w, h = shifter_rects[sid]
        if w == 0 or h == 0:
            w = h = 1
        parts.append(_rect(x, y, w, h, chip_h, f'fill="{SHIFTER_FILL}"'))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
