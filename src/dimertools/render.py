"""SVG diagrams of dimer models: tiling, quiver, matchings, zig-zag paths.

The only module allowed to use floating point; the layout is cosmetic.
Vertices are placed by a harmonic (Tutte style) embedding on the torus:
each position is the average of its neighbours' lifted positions, solved
as a linear system with one vertex pinned.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .matchings import PerfectMatching
from .surface import BLACK, Quiver, TorusGraph, dualize
from .zigzag import ZigZagPath

LAYERS = ("tiling", "quiver", "matching", "zigzag")
TILES = (3, 1)      # fundamental domains drawn across and up
SCALE = 120.0       # pixels per fundamental domain


def harmonic_layout(g: TorusGraph) -> list[tuple[float, float]]:
    """Positions in the unit cell [0,1)^2 minimizing spring energy on the
    torus; degenerate collapses are possible for tiny graphs but harmless."""
    import numpy as np

    n = len(g.colors)
    lap = np.zeros((n, n))
    rhs = np.zeros((n, 2))
    for e in g.edges:
        for v, w, s in ((e.black, e.white, 1), (e.white, e.black, -1)):
            lap[v, v] += 1
            lap[v, w] -= 1
            rhs[v] += (s * e.offset[0], s * e.offset[1])
    lap[0, :] = 0
    lap[0, 0] = 1
    rhs[0] = (0.25, 0.25)
    pos = np.linalg.solve(lap, rhs)
    # spread coincident vertices slightly so every edge is visible
    for v in range(1, n):
        pos[v] += 0.03 * ((v % 3) - 1), 0.03 * ((v // 3 % 3) - 1)
    return [(float(x) % 1.0, float(y) % 1.0) for x, y in pos]


def _edge_endpoints(g: TorusGraph, pos, e):
    bx, by = pos[e.black]
    wx, wy = pos[e.white]
    return (bx, by), (wx + e.offset[0], wy + e.offset[1])


def _face_centers(g: TorusGraph, pos) -> dict[int, tuple[float, float]]:
    """Barycenter of each dimer face's lifted boundary corners."""
    centers = {}
    for fid, face in enumerate(g.faces):
        acc_x = acc_y = 0.0
        for v, e in face:
            lx, ly = g.lift[v, e]
            acc_x += pos[v][0] + lx
            acc_y += pos[v][1] + ly
        centers[fid] = (acc_x / len(face), acc_y / len(face))
    return centers


def emit_svg(g: TorusGraph, layers: Sequence[str] = ("tiling",),
             matching: Optional[PerfectMatching] = None,
             path: Optional[ZigZagPath] = None,
             q: Optional[Quiver] = None) -> str:
    """Render the model over a TILES[0] x TILES[1] array of fundamental
    domains.  Unknown layer names raise ValueError; the matching and
    zigzag layers need their respective arguments.  The quiver layer
    draws `q`, or the dual of `g` when no quiver is passed."""
    for layer in layers:
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
    if "matching" in layers and matching is None:
        raise ValueError("matching layer requires a matching")
    if "zigzag" in layers and path is None:
        raise ValueError("zigzag layer requires a path")
    pos = harmonic_layout(g)
    nx, ny = TILES
    pad = 0.15
    height = (ny + 2 * pad) * SCALE

    def xy(p, tx, ty):
        return ((p[0] + tx + pad) * SCALE,
                height - (p[1] + ty + pad) * SCALE)

    def line(p, p2, tx, ty, extra=""):
        x1, y1 = xy(p, tx, ty)
        x2, y2 = xy(p2, tx, ty)
        return (f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
                f'y2="{y2:.2f}"{extra}/>')

    width = (nx + 2 * pad) * SCALE
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
           f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
           '<defs><marker id="arr" viewBox="0 0 10 10" refX="9" refY="5" '
           'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
           '<path d="M 0 0 L 10 5 L 0 10 z" fill="crimson"/></marker></defs>']
    domains = [(tx, ty) for tx in range(nx) for ty in range(ny)]

    out.append('<g class="tiling" stroke="gray" stroke-width="1.5">')
    for tx, ty in domains:
        for e in g.edges:
            a, b = _edge_endpoints(g, pos, e)
            out.append(line(a, b, tx, ty))
        for v, c in enumerate(g.colors):
            x, y = xy(pos[v], tx, ty)
            fill = "black" if c == BLACK else "white"
            out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5" '
                       f'fill="{fill}" stroke="black"/>')
    out.append('</g>')

    if "matching" in layers:
        out.append('<g class="matching" stroke="royalblue" '
                   'stroke-width="5" stroke-linecap="round">')
        for tx, ty in domains:
            for e in g.edges:
                if e.id in matching:
                    a, b = _edge_endpoints(g, pos, e)
                    out.append(line(a, b, tx, ty))
        out.append('</g>')

    if "quiver" in layers:
        q = q if q is not None else dualize(g)
        centers = _face_centers(g, pos)
        out.append('<g class="quiver" stroke="crimson" stroke-width="1.5" '
                   'fill="none">')
        for tx, ty in domains:
            for a in q.arrows:
                hc = centers[a.head]
                head = (hc[0] - a.offset[0], hc[1] - a.offset[1])
                out.append(line(centers[a.tail], head, tx, ty,
                                ' marker-end="url(#arr)"'))
        out.append('</g>')

    if "zigzag" in layers:
        # one full period through edge midpoints in the lift, closed up to
        # the class translation
        mids = []
        for a, off in zip(path.arrows, path.offsets):
            p, p2 = _edge_endpoints(g, pos, g.edges[a])
            mids.append(((p[0] + p2[0]) / 2 + off[0],
                         (p[1] + p2[1]) / 2 + off[1]))
        mids.append((mids[0][0] + path.cls[0], mids[0][1] + path.cls[1]))
        pts = " ".join("%.2f,%.2f" % xy(m, 0, 0) for m in mids)
        out.append('<g class="zigzag"><polyline fill="none" stroke="green" '
                   f'stroke-width="3" stroke-dasharray="6 3" '
                   f'points="{pts}"/></g>')

    out.append('</svg>')
    return "\n".join(out)
