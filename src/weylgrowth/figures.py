"""Rank-two figure geometry: Weyl-orbit hulls of the wall-avoidance bounds.

The drawable data is exact; the SVG writer formats it late and
deterministically, so equal inputs give byte-equal files.
"""

import math

from .errors import InputError
from .rational import Q, matvec, primitive, vadd, vec, vscale
from .rootsystem import (build_root_system, rho, strongly_orthogonal_theta,
                         weyl_group)
from .cones import chamber_rays
from .verify import bound_wall_avoided, invariant_direction


def orbit_hull(R, point):
    """Weyl orbit of a covector, deduped and sorted counterclockwise.

    Orbit points lie on one level set of the invariant form, a strictly
    convex curve in rank two, so every distinct orbit point is a hull
    vertex.  The zero covector collapses to a single vertex.
    """
    pts = sorted({matvec(w, vec(point)) for w in weyl_group(R)})
    if len(pts) == 1:
        return tuple(pts)
    return tuple(sorted(pts, key=lambda p: math.atan2(float(p[1]),
                                                      float(p[0]))))


def figure_geometry(preset) -> dict:
    """Exact hull data behind the rank-two bounds figure."""
    R = build_root_system(preset)
    if R.rank != 2:
        raise InputError("figure geometry exists for rank-2 presets only")
    _, theta = strongly_orthogonal_theta(R)
    gap = vadd(rho(R), vscale(Q(-1), theta))
    walls = []
    for i, a in enumerate(R.simple_roots, start=1):
        c, _bound = bound_wall_avoided(R, a)
        u = primitive(invariant_direction(R, a))
        walls.append({
            "alpha_index": i,
            "c": c,
            "direction": u,
            "hull": orbit_hull(R, vscale(c, u)),
        })
    return {
        "label": R.label,
        "rho": rho(R),
        "theta": theta,
        "gap": gap,
        "chamber_rays": chamber_rays(R),
        "gap_hull": orbit_hull(R, gap),
        "wall_hulls": walls,
    }


def _fmt(x) -> str:
    return f"{float(x):.4f}"


def _poly_points(hull, scale) -> str:
    # SVG y axis points down; flip here instead of a transform
    return " ".join(f"{_fmt(float(p[0]) * scale)},{_fmt(-float(p[1]) * scale)}"
                    for p in hull)


_HULL_STYLE = (
    ("gap_hull", "#202020", "none", "W(rho - Theta)"),
    ("wall_1", "#1f5fbf", "6,3", "W(c1 u1)"),
    ("wall_2", "#bf3f1f", "2,3", "W(c2 u2)"),
)


def figure_svg(geom: dict) -> str:
    """Deterministic standalone 420 x 420 SVG for the hull geometry."""
    size = 420
    pts = list(geom["gap_hull"])
    for w in geom["wall_hulls"]:
        pts.extend(w["hull"])
    reach = max((max(abs(float(x)) for x in p) for p in pts if any(p)),
                default=1.0)
    if reach == 0:
        reach = 1.0
    half = size / 2.0
    scale = (half - 30.0) / reach
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="{-half:.1f} {-half:.1f} {size} {size}">',
        f'<rect x="{-half:.1f}" y="{-half:.1f}" width="{size}" '
        f'height="{size}" fill="#ffffff"/>',
    ]
    # dominant chamber wedge
    rays = geom["chamber_rays"]
    wedge = []
    for r in rays:
        n = math.hypot(float(r[0]), float(r[1]))
        wedge.append((float(r[0]) / n * reach * 1.08,
                      float(r[1]) / n * reach * 1.08))
    parts.append(
        f'<path d="M 0,0 L {_fmt(wedge[0][0]*scale)},{_fmt(-wedge[0][1]*scale)} '
        f'L {_fmt(wedge[1][0]*scale)},{_fmt(-wedge[1][1]*scale)} Z" '
        'fill="#f0f0f0" stroke="#c0c0c0" stroke-width="1"/>')
    hulls = {
        "gap_hull": geom["gap_hull"],
        "wall_1": geom["wall_hulls"][0]["hull"],
        "wall_2": geom["wall_hulls"][1]["hull"],
    }
    for key, color, dash, label in _HULL_STYLE:
        hull = hulls[key]
        # a zero bound collapses the hull; draw nothing for it
        if len(hull) < 2:
            continue
        dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
        parts.append(f'<polygon points="{_poly_points(hull, scale)}" '
                     f'fill="{color}" fill-opacity="0.07" stroke="{color}" '
                     f'stroke-width="1.6"{dash_attr}/>')
    # legend, top left corner
    y = -half + 18.0
    for key, color, dash, label in _HULL_STYLE:
        if len(hulls[key]) < 2:
            continue
        dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
        parts.append(f'<line x1="{-half+10:.1f}" y1="{y:.1f}" '
                     f'x2="{-half+38:.1f}" y2="{y:.1f}" stroke="{color}" '
                     f'stroke-width="1.6"{dash_attr}/>')
        parts.append(f'<text x="{-half+44:.1f}" y="{y+4:.1f}" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')
        y += 16.0
    parts.append(f'<text x="{-half+10:.1f}" y="{half-10:.1f}" '
                 f'font-family="sans-serif" font-size="12">'
                 f'{geom["label"]}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
