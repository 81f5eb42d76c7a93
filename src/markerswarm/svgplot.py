"""Top-down SVG rendering of a run report.

One static picture per run: true marker positions as crosses, estimated
markers as circles, and per drone two polylines (solid truth, dashed
estimate), everything projected onto the ground plane. Estimated
geometry is aligned to the truth frame the same way the metrics are, so
the picture shows residual error rather than the arbitrary frame offset.
Merge events are annotated as text in the top-left corner.
"""

from __future__ import annotations

import numpy as np

from markerswarm.metrics import truth_alignments

WIDTH = 720
HEIGHT = 720
MARGIN = 54.0
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text, as ``xml.sax.saxutils.escape`` does.

    A local helper: importing ``xml.sax`` loads the stdlib network stack.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def render_svg(report: dict) -> str:
    bounds = report["world"]["bounds"]
    lo = np.asarray(bounds["min"], dtype=float)
    hi = np.asarray(bounds["max"], dtype=float)
    span = np.maximum(hi[:2] - lo[:2], 1e-9)
    scale = min((WIDTH - 2 * MARGIN) / span[0], (HEIGHT - 2 * MARGIN) / span[1])

    def sx(x: float) -> float:
        return MARGIN + (x - lo[0]) * scale

    def sy(y: float) -> float:
        return HEIGHT - MARGIN - (y - lo[1]) * scale

    aligned = {frame: rt for frame, (_, rt) in truth_alignments(report).items()}

    def project(t, frame: int):
        point = np.asarray(t, dtype=float)
        rt = aligned.get(frame)
        if rt is not None:
            point = rt.apply(point)
        return sx(point[0]), sy(point[1])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        # axes box with the world extent as labels
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{MARGIN}" y="{HEIGHT - MARGIN + 16}" font-size="11" fill="#333">'
        f"x: {lo[0]:g} .. {hi[0]:g} m</text>",
        f'<text x="{MARGIN - 46}" y="{MARGIN - 8}" font-size="11" fill="#333">'
        f"y: {lo[1]:g} .. {hi[1]:g} m</text>",
        f'<text x="{MARGIN}" y="{MARGIN - 28}" font-size="13" fill="#000">'
        f'{escape(str(report.get("scenario", "")))} (seed {report.get("seed", "?")}, '
        f'{escape(str(report.get("mode", "")))})</text>',
    ]

    for index, (drone_id, rows) in enumerate(sorted(report["trajectories"].items())):
        color = PALETTE[index % len(PALETTE)]
        truth_points = " ".join(
            f"{sx(row['truth']['t'][0]):.2f},{sy(row['truth']['t'][1]):.2f}" for row in rows
        )
        est_points = " ".join(
            "{:.2f},{:.2f}".format(*project(row["estimate"]["t"], int(row["frame"])))
            for row in rows
        )
        if truth_points:
            parts.append(
                f'<polyline points="{truth_points}" fill="none" stroke="{color}" '
                f'stroke-width="1.6" data-drone="{escape(drone_id)}" data-source="truth"/>'
            )
        if est_points:
            parts.append(
                f'<polyline points="{est_points}" fill="none" stroke="{color}" '
                f'stroke-width="1.2" stroke-dasharray="5,4" '
                f'data-drone="{escape(drone_id)}" data-source="estimate"/>'
            )
        parts.append(
            f'<text x="{WIDTH - MARGIN - 108}" y="{MARGIN + 16 + 14 * index}" '
            f'font-size="11" fill="{color}">drone {escape(drone_id)}</text>'
        )

    for marker_id, pose in sorted(report["world"]["markers"].items(), key=lambda kv: int(kv[0])):
        x, y = sx(pose["t"][0]), sy(pose["t"][1])
        parts.append(
            f'<path d="M {x - 5:.2f} {y - 5:.2f} L {x + 5:.2f} {y + 5:.2f} '
            f'M {x - 5:.2f} {y + 5:.2f} L {x + 5:.2f} {y - 5:.2f}" '
            f'stroke="#000" stroke-width="1.4" data-marker="{escape(marker_id)}"/>'
        )
        parts.append(
            f'<text x="{x + 7:.2f}" y="{y - 7:.2f}" font-size="10" fill="#000">'
            f"{escape(marker_id)}</text>"
        )

    # one circle per estimated map entry, aligned into the truth frame
    for entry in sorted(report["map"], key=lambda e: e["marker_id"]):
        x, y = project(entry["pose"]["t"], int(entry["frame"]))
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4.5" fill="none" stroke="#c2185b" '
            f'stroke-width="1.6" data-marker="{entry["marker_id"]}"/>'
        )

    for index, event in enumerate(report["merge_events"]):
        parts.append(
            f'<text x="{MARGIN + 6}" y="{MARGIN + 18 + 14 * index}" font-size="11" '
            f'fill="#555">merge t={event["time"]:.1f}s: frame {event["loser"]} '
            f'&#8594; {event["winner"]}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts)
