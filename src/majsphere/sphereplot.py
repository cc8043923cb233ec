"""Orthographic sphere plots of point multisets, written as plain SVG.

Two hemisphere views are drawn side by side: the front view looks along +y
(north pole up, azimuth 0 toward the viewer's right), the back view shows
the opposite hemisphere mirrored so walking around the sphere reads
naturally.  Each view draws the sphere's outline and its equator (seen
edge-on, a horizontal line); sites are white dots with a multiplicity badge
when points coincide.
"""

from __future__ import annotations

from .classify import DEFAULT_TOL, degeneracy_configuration
from .plane import point_xyz
from .symstate import RootMultiset

_RADIUS = 130.0
_CENTERS = ((160.0, 170.0), (480.0, 170.0))
_WIDTH, _HEIGHT = 640, 360
_RIM_EPS = 1e-9


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _project(xyz: tuple[float, float, float], view: int) -> tuple[float, float, bool]:
    x, y, z = xyz
    cx, cy = _CENTERS[view]
    visible = y <= _RIM_EPS if view == 0 else y >= -_RIM_EPS
    px = cx + _RADIUS * (x if view == 0 else -x)
    py = cy - _RADIUS * z
    return px, py, visible


def render_svg(r: RootMultiset, tol: float = DEFAULT_TOL, title: str = "") -> str:
    """SVG document of the root multiset's sites, clustered at ``tol``."""
    _, clustered = degeneracy_configuration(r, tol)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        safe = (
            title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        )
        parts.append(
            f'<text x="16" y="24" font-family="sans-serif" font-size="14">{safe}</text>'
        )
    for view, label in ((0, "front"), (1, "back")):
        cx, cy = _CENTERS[view]
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(_RADIUS)}" '
            f'fill="none" stroke="black" stroke-width="1.5"/>'
        )
        parts.append(
            f'<line x1="{_fmt(cx - _RADIUS)}" y1="{_fmt(cy)}" x2="{_fmt(cx + _RADIUS)}" '
            f'y2="{_fmt(cy)}" stroke="#cccccc" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(cy + _RADIUS + 28)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{label}</text>'
        )
        for site, mult in clustered.sites:
            px, py, visible = _project(point_xyz(site), view)
            if not visible:
                continue
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="6" fill="white" '
                f'stroke="black" stroke-width="1.5"/>'
            )
            if mult > 1:
                parts.append(
                    f'<text x="{_fmt(px + 9)}" y="{_fmt(py - 7)}" '
                    f'font-family="sans-serif" font-size="12">x{mult}</text>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
