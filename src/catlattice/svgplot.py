"""Tiny SVG line-plot writer.

Enough for sweep reports: line+marker series on linear axes, a legend,
vertical reference lines.  Each series gets the next color and marker
shape in turn.  Emits self-contained SVG text of a fixed size with no
dependency on a plotting stack; layout is plain and bit-exactness is not
a goal.
"""
from __future__ import annotations

import math
from xml.sax.saxutils import escape

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")
MARKERS = ("circle", "square", "diamond", "triangle")
WIDTH, HEIGHT = 640, 440


def _nice_ticks(lo, hi, target=6):
    """Round tick positions covering [lo, hi] on a 1-2-5 progression."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return "%.0e" % v
    s = "%.4g" % v
    return s


def _marker_svg(kind, x, y, r, color):
    if kind == "square":
        return ('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
                'fill="%s"/>' % (x - r, y - r, 2 * r, 2 * r, color))
    if kind == "diamond":
        pts = "%.2f,%.2f %.2f,%.2f %.2f,%.2f %.2f,%.2f" % (
            x, y - 1.3 * r, x + 1.3 * r, y, x, y + 1.3 * r, x - 1.3 * r, y)
        return '<polygon points="%s" fill="%s"/>' % (pts, color)
    if kind == "triangle":
        pts = "%.2f,%.2f %.2f,%.2f %.2f,%.2f" % (
            x, y - 1.3 * r, x + 1.2 * r, y + r, x - 1.2 * r, y + r)
        return '<polygon points="%s" fill="%s"/>' % (pts, color)
    return '<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s"/>' % (x, y, r,
                                                                 color)


class SvgFigure:
    def __init__(self, title="", xlabel="", ylabel=""):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series = []
        self.vlines = []

    def add_series(self, x, y, label=None):
        pts = [(float(a), float(b)) for a, b in zip(x, y)]
        if not pts:
            raise ValueError("series '%s' has no plottable points" % label)
        self.series.append((pts, label))

    def add_vline(self, x, label=None):
        self.vlines.append((float(x), label))

    # -- rendering ---------------------------------------------------

    def _ranges(self):
        xs = [p[0] for s in self.series for p in s[0]]
        xs += [v for v, _ in self.vlines]
        ys = [p[1] for s in self.series for p in s[0]]
        xlo, xhi = min(xs), max(xs)
        ylo, yhi = min(ys), max(ys)
        pad = 0.05 * (xhi - xlo) or max(abs(xlo), 1.0) * 0.1
        xlo, xhi = xlo - pad, xhi + pad
        pad = 0.05 * (yhi - ylo) or max(abs(ylo), 1.0) * 0.1
        ylo, yhi = ylo - pad, yhi + pad
        return xlo, xhi, ylo, yhi

    def to_svg(self):
        if not self.series:
            raise ValueError("figure has no series")
        ml, mr, mt, mb = 64, 16, 34, 48
        pw = WIDTH - ml - mr
        ph = HEIGHT - mt - mb
        xlo, xhi, ylo, yhi = self._ranges()

        def sx(v):
            return ml + (v - xlo) / (xhi - xlo) * pw

        def sy(v):
            return mt + (1.0 - (v - ylo) / (yhi - ylo)) * ph

        out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
               'height="%d" viewBox="0 0 %d %d">'
               % (WIDTH, HEIGHT, WIDTH, HEIGHT)]
        out.append('<rect width="%d" height="%d" fill="white"/>'
                   % (WIDTH, HEIGHT))
        out.append('<g font-family="sans-serif" font-size="12">')

        for t in _nice_ticks(xlo, xhi):
            px = sx(t)
            out.append('<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" '
                       'stroke="#dddddd"/>' % (px, mt, px, mt + ph))
            out.append('<text x="%.2f" y="%d" text-anchor="middle">%s</text>'
                       % (px, mt + ph + 16, _fmt(t)))
        for t in _nice_ticks(ylo, yhi):
            py = sy(t)
            out.append('<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" '
                       'stroke="#dddddd"/>' % (ml, py, ml + pw, py))
            out.append('<text x="%d" y="%.2f" text-anchor="end" '
                       'dominant-baseline="middle">%s</text>'
                       % (ml - 6, py, _fmt(t)))
        out.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
                   'stroke="#333333"/>' % (ml, mt, pw, ph))

        for vx, vlabel in self.vlines:
            if not (xlo <= vx <= xhi):
                continue
            px = sx(vx)
            out.append('<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" '
                       'stroke="#555555" stroke-dasharray="5,4"/>'
                       % (px, mt, px, mt + ph))
            if vlabel:
                out.append('<text x="%.2f" y="%d" text-anchor="middle" '
                           'fill="#555555">%s</text>'
                           % (px, mt - 6, escape(vlabel)))

        for idx, (pts, label) in enumerate(self.series):
            color = PALETTE[idx % len(PALETTE)]
            kind = MARKERS[idx % len(MARKERS)]
            path = " ".join("%.2f,%.2f" % (sx(px), sy(py)) for px, py in pts)
            out.append('<polyline points="%s" fill="none" stroke="%s" '
                       'stroke-width="1.5"/>' % (path, color))
            for px, py in pts:
                out.append(_marker_svg(kind, sx(px), sy(py), 3.0, color))

        # legend, top right inside the frame
        labeled = [(s[1], i) for i, s in enumerate(self.series) if s[1]]
        if labeled:
            lw = 10 + 7 * max(len(str(lbl)) for lbl, _ in labeled) + 26
            lh = 18 * len(labeled) + 8
            lx = ml + pw - lw - 8
            ly = mt + 8
            out.append('<rect x="%d" y="%d" width="%d" height="%d" '
                       'fill="white" fill-opacity="0.85" stroke="#999999"/>'
                       % (lx, ly, lw, lh))
            for row, (lbl, i) in enumerate(labeled):
                color = PALETTE[i % len(PALETTE)]
                cy = ly + 14 + 18 * row
                out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" '
                           'stroke="%s" stroke-width="1.5"/>'
                           % (lx + 6, cy - 4, lx + 24, cy - 4, color))
                out.append('<text x="%d" y="%d">%s</text>'
                           % (lx + 28, cy, escape(str(lbl))))

        if self.title:
            out.append('<text x="%.1f" y="20" text-anchor="middle" '
                       'font-size="14">%s</text>'
                       % (ml + pw / 2.0, escape(self.title)))
        if self.xlabel:
            out.append('<text x="%.1f" y="%d" text-anchor="middle">%s</text>'
                       % (ml + pw / 2.0, HEIGHT - 10,
                          escape(self.xlabel)))
        if self.ylabel:
            out.append('<text x="16" y="%.1f" text-anchor="middle" '
                       'transform="rotate(-90 16 %.1f)">%s</text>'
                       % (mt + ph / 2.0, mt + ph / 2.0, escape(self.ylabel)))
        out.append("</g></svg>")
        return "\n".join(out)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_svg())
        return path
