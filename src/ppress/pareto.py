"""Dominance filtering over (compression ratio, quality) evaluation points.

Both axes are oriented so larger is better before any comparison: metrics
where smaller is better are negated exactly once, at ingestion.  Fronts are
kept sorted by compression ratio, which makes quality strictly decreasing
along the front and turns hypervolume into a single left-to-right sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigError


@dataclass(frozen=True)
class ObjectivePoint:
    """One evaluated configuration in objective space."""

    cr: float
    q: float
    record_ref: str = ""
    method: str = ""
    bound: float | None = None

    def __post_init__(self) -> None:
        if not self.cr > 0:
            raise ConfigError(f"compression ratio must be positive, got {self.cr}")


@dataclass(frozen=True)
class Front:
    """Non-dominated points sorted by compression ratio ascending."""

    points: tuple[ObjectivePoint, ...]
    scope: str = "global"


def oriented_quality(value: float, direction: str) -> float:
    """Flip lower-is-better metrics so dominance always maximizes."""
    if direction == "lower_better":
        return -value
    if direction == "higher_better":
        return value
    raise ConfigError(f"unknown metric direction {direction!r}")


def point_from_record(record) -> ObjectivePoint | None:
    """Build an objective point from an evaluation record; None if unusable."""
    if not record.ok or record.psi is None or record.ratio is None:
        return None
    config = record.config
    bounds = config.get("c") or []
    return ObjectivePoint(
        cr=record.ratio,
        q=oriented_quality(record.psi, record.direction),
        record_ref=record.record_id,
        method=config.get("method", ""),
        bound=float(bounds[0]) if bounds else None,
    )


def points_from_records(records: Iterable) -> list[ObjectivePoint]:
    out = []
    for rec in records:
        p = point_from_record(rec)
        if p is not None:
            out.append(p)
    return out


def dominates(a: ObjectivePoint, b: ObjectivePoint) -> bool:
    """a is at least as good on both axes and strictly better on one."""
    return a.cr >= b.cr and a.q >= b.q and (a.cr > b.cr or a.q > b.q)


def pareto_front(points: Sequence[ObjectivePoint], scope: str = "global") -> Front:
    """Exact non-dominated subset via a sort-and-sweep.

    Duplicate (cr, q) pairs collapse to the representative with the smallest
    record reference, so the result is deterministic under input reordering.
    """
    if not points:
        raise ConfigError("cannot take the front of zero points")
    if scope not in ("per_method", "global"):
        raise ConfigError(f"unknown front scope {scope!r}")
    best: dict[tuple[float, float], ObjectivePoint] = {}
    for p in points:
        key = (p.cr, p.q)
        cur = best.get(key)
        if cur is None or p.record_ref < cur.record_ref:
            best[key] = p
    ordered = sorted(best.values(), key=lambda p: (-p.cr, -p.q))
    kept = []
    top_q = -float("inf")
    for p in ordered:
        if p.q > top_q:
            kept.append(p)
            top_q = p.q
    kept.reverse()
    return Front(points=tuple(kept), scope=scope)


def per_method_fronts(points: Sequence[ObjectivePoint]) -> dict[str, Front]:
    groups: dict[str, list[ObjectivePoint]] = {}
    for p in points:
        groups.setdefault(p.method, []).append(p)
    return {
        m: pareto_front(pts, scope="per_method") for m, pts in sorted(groups.items())
    }


def dominated_methods(points: Sequence[ObjectivePoint]) -> list[str]:
    """Methods with no representative on the pooled front."""
    if not points:
        return []
    surviving = {p.method for p in pareto_front(points, scope="global").points}
    return sorted({p.method for p in points} - surviving)


def hypervolume2d(front: Front | Sequence[ObjectivePoint], ref: tuple[float, float]) -> float:
    """Area of objective space the front covers beyond the reference point."""
    points = front.points if isinstance(front, Front) else tuple(front)
    if not points:
        return 0.0
    points = pareto_front(points).points
    ref_cr, ref_q = ref
    for p in points:
        ok = p.cr >= ref_cr and p.q >= ref_q and (p.cr > ref_cr or p.q > ref_q)
        if not ok:
            raise ConfigError(
                f"reference ({ref_cr}, {ref_q}) is not dominated by ({p.cr}, {p.q})"
            )
    area = 0.0
    prev_cr = ref_cr
    # sorted by cr ascending, q descending: each step adds a disjoint slab
    for p in points:
        area += (p.cr - prev_cr) * (p.q - ref_q)
        prev_cr = p.cr
    return area


_CSV_HEADER = "method,bound,cr,q,record_id"


def front_csv(front: Front) -> str:
    lines = [_CSV_HEADER]
    for p in front.points:
        bound = "" if p.bound is None else repr(p.bound)
        lines.append(f"{p.method},{bound},{p.cr!r},{p.q!r},{p.record_ref}")
    return "\n".join(lines) + "\n"


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


def _scales(points, width, height, margin):
    import math

    xs = [math.log10(p.cr) for p in points]
    ys = [p.q for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def sx(cr):
        return margin + (math.log10(cr) - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(q):
        return height - margin - (q - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    return sx, sy


def _escape(text: str) -> str:
    """Escape &, < and > in SVG text, as xml.sax.saxutils.escape does,
    without importing the XML package and the network modules it pulls in."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def front_svg(
    points: Sequence[ObjectivePoint],
    fronts: Sequence[Front] = (),
    width: int = 640,
    height: int = 440,
) -> str:
    """Scatter of all points with a polyline per front; self-contained SVG."""
    if not points:
        raise ConfigError("nothing to plot")
    margin = 48
    sx, sy = _scales(points, width, height, margin)
    methods = sorted({p.method for p in points})
    color = {m: _PALETTE[i % len(_PALETTE)] for i, m in enumerate(methods)}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 10}" text-anchor="middle" '
        f'font-size="12">log10(compression ratio)</text>',
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height / 2:.0f})">quality</text>',
    ]
    for front in fronts:
        if not front.points:
            continue
        coords = " ".join(
            f"{sx(p.cr):.2f},{sy(p.q):.2f}" for p in front.points
        )
        stroke = (
            "black"
            if front.scope == "global"
            else color.get(front.points[0].method, "black")
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="1.5"/>'
        )
    for p in points:
        parts.append(
            f'<circle cx="{sx(p.cr):.2f}" cy="{sy(p.q):.2f}" r="3.5" '
            f'fill="{color[p.method]}" fill-opacity="0.8">'
            f"<title>{_escape(p.method)} cr={p.cr:.4g} q={p.q:.4g}</title>"
            f"</circle>"
        )
    for i, m in enumerate(methods):
        y = margin + 14 * i
        parts.append(
            f'<circle cx="{width - margin - 110}" cy="{y}" r="4" fill="{color[m]}"/>'
        )
        parts.append(
            f'<text x="{width - margin - 100}" y="{y + 4}" font-size="11">'
            f"{_escape(m)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
