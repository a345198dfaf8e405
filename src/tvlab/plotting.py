"""Deterministic SVG diagnostics: d=1 families drawn in the complex plane
with an optional transversal point, and per-set projection panels showing
each coefficient polygon, its closest point to the origin, and the
half-plane that separates the polygon from the origin."""

from __future__ import annotations

import numpy as np

from .geometry import (
    ComplexHyperplane,
    Family,
    SpherePoint,
    _closest_rows,
    _hull2d,
    embed_family,
)

_COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _fmt(x: float) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0
    return "%.6g" % v


class _Canvas:
    """Collects shapes in data coordinates, then emits one SVG with a
    y-up viewBox fitted to the data."""

    def __init__(self):
        self.shapes = []
        self.xs = []
        self.ys = []

    def _see(self, pts):
        for x, y in pts:
            self.xs.append(float(x))
            self.ys.append(float(y))

    def polygon(self, pts, color, fill="none", width=0.015, dash=None):
        self._see(pts)
        d = "M " + " L ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in pts) + " Z"
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.shapes.append(
            f'<path d="{d}" stroke="{color}" fill="{fill}" fill-opacity="0.15"'
            f' stroke-width="{_fmt(width)}"{dash_attr}/>'
        )

    def line(self, p, q, color, width=0.015, dash=None):
        self._see([p, q])
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.shapes.append(
            f'<line x1="{_fmt(p[0])}" y1="{_fmt(-p[1])}" x2="{_fmt(q[0])}"'
            f' y2="{_fmt(-q[1])}" stroke="{color}" stroke-width="{_fmt(width)}"{dash_attr}/>'
        )

    def arrow(self, p, q, color, width=0.02):
        self.line(p, q, color, width)
        # a small V head at q
        v = np.array([q[0] - p[0], q[1] - p[1]], dtype=float)
        n = np.linalg.norm(v)
        if n < 1e-12:
            return
        v = v / n
        w = np.array([-v[1], v[0]])
        size = 0.08
        for side in (+1, -1):
            tip = np.array(q) - size * v + side * 0.5 * size * w
            self.line(tuple(tip), q, color, width)

    def dot(self, p, color, r=0.035):
        self._see([p])
        self.shapes.append(
            f'<circle cx="{_fmt(p[0])}" cy="{_fmt(-p[1])}" r="{_fmt(r)}" fill="{color}"/>'
        )

    def label(self, p, text, color, size=0.14):
        self._see([p])
        self.shapes.append(
            f'<text x="{_fmt(p[0])}" y="{_fmt(-p[1])}" fill="{color}"'
            f' font-size="{_fmt(size)}" font-family="monospace">{text}</text>'
        )

    def render(self, pad=0.3, pixels=640) -> str:
        if not self.xs:
            self.xs = [0.0]
            self.ys = [0.0]
        x0, x1 = min(self.xs) - pad, max(self.xs) + pad
        y0, y1 = min(self.ys) - pad, max(self.ys) + pad
        w, h = x1 - x0, y1 - y0
        header = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{pixels}"'
            f' height="{_fmt(pixels * h / w)}"'
            f' viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(w)} {_fmt(h)}">'
        )
        return "\n".join([header] + self.shapes + ["</svg>"])


def _panel(canvas, coeffs, color, origin_shift, set_label):
    """One projection panel at the given horizontal shift: the coefficient
    polygon, the origin, the closest point, and the separating half-plane
    boundary {Re(conj(p) z) = |p|^2}."""
    pts = [(z.real + origin_shift, z.imag) for z in coeffs]
    canvas.polygon(_hull2d(pts), color, fill=color)
    o = (origin_shift, 0.0)
    canvas.dot(o, "#000000", r=0.03)
    p = complex(_closest_rows(np.array([coeffs]))[0])
    pq = (p.real + origin_shift, p.imag)
    canvas.arrow(o, pq, "#000000")
    canvas.label((origin_shift + 0.05, -0.12), set_label, color)
    if abs(p) > 1e-12:
        # half-plane boundary through p, perpendicular to p
        t = np.array([-p.imag, p.real]) / abs(p)
        a = (pq[0] - t[0], pq[1] - t[1])
        b = (pq[0] + t[0], pq[1] + t[1])
        canvas.line(a, b, "#444444", dash="0.05,0.05")
        # a vector to one polygon vertex, on the same side as p
        far = max(coeffs, key=lambda z: (np.conj(p) * z).real)
        canvas.arrow(o, (far.real + origin_shift, far.imag), color)


def plot_instance(instance, transversal: ComplexHyperplane | None = None) -> str:
    """SVG for a d=1 instance (sets drawn in the complex plane, transversal
    as a point) or projection panels for d >= 2 given a transversal."""
    family = instance.family
    if family.ambient != "complex":
        raise ValueError("plotting expects a complex family")
    if family.dim == 1:
        return _plot_d1(family, transversal)
    if transversal is None:
        raise ValueError(
            "d >= 2 needs a transversal to choose the projection direction"
        )
    return plot_projection_panels(family, transversal)


def _plot_d1(family: Family, transversal) -> str:
    canvas = _Canvas()
    for i, (label, poly) in enumerate(family):
        color = _COLORS[i % len(_COLORS)]
        pts = [(z.real, z.imag) for z in poly.vertices[:, 0]]
        if len(pts) == 1:
            canvas.dot(pts[0], color)
        else:
            canvas.polygon(_hull2d(pts), color, fill=color)
        anchor = max(pts)
        canvas.label((anchor[0] + 0.05, anchor[1] + 0.05), label, color)
    if transversal is not None:
        z = transversal.offset * transversal.normal[0]
        canvas.dot((z.real, z.imag), "#000000", r=0.05)
        canvas.label((z.real + 0.07, z.imag + 0.07), "T", "#000000")
    return canvas.render()


def plot_projection_panels(family: Family, transversal: ComplexHyperplane) -> str:
    """One panel per set: the polygon of projection coefficients along the
    transversal's sphere direction, each shifted to its own horizontal slot."""
    a = transversal.normal
    x = np.concatenate([a, [-np.conj(transversal.offset)]])
    x = SpherePoint.normalized(x)
    emb = embed_family(family)
    canvas = _Canvas()
    shift = 0.0
    for i, (label, poly) in enumerate(emb):
        coeffs = [complex(c) for c in poly.vertices @ np.conj(x.coords)]
        span = 2.0 * max(1e-6, max(abs(c) for c in coeffs))
        shift += span
        _panel(canvas, coeffs, _COLORS[i % len(_COLORS)], shift, label)
        shift += span
    return canvas.render()
