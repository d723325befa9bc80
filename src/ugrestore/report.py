"""Report bundle and plot/CSV emitters.

Four artifact classes mirror how restoration results are usually presented:
per-switchgear allowable switching zones with the chosen closing points, the
per-period quality-factor schedule with first-feasible markers, storage
state-of-charge profiles, and the per-microgrid phase balance table.

Plots are written as self-contained SVG with the underlying rows embedded in
a ``<metadata>`` block; the CSV files are generated from the same in-memory
values, and tests regenerate them from the SVG metadata to prove the two
never drift apart.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

from ugrestore import physics
from ugrestore.feeder import FeederCase, equivalent_capacitance
from ugrestore.jsonutil import plain
from ugrestore.plan import RestorationPlan
from ugrestore.validator import assess_switchgears, energy_accounting, worst_closing_inrush


@dataclass
class SwitchingZone:
    gear_id: str
    theta_limit_rad: float
    dv_inrush_limit_pu: float  # from the inrush current rating; inf if no capacitance
    dv_explicit_limit_pu: float | None
    polygon: list[tuple[float, float]]  # (theta, dv) vertices
    points: list[dict]  # chosen closing points


@dataclass
class ReportBundle:
    case_name: str
    switching_zones: list[SwitchingZone] = field(default_factory=list)
    q_schedule: dict = field(default_factory=dict)
    soc_profiles: dict = field(default_factory=dict)
    phase_table: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def _zone_polygon(theta_limit: float, dv_limit: float) -> list[tuple[float, float]]:
    return [
        (-theta_limit, -dv_limit),
        (theta_limit, -dv_limit),
        (theta_limit, dv_limit),
        (-theta_limit, dv_limit),
    ]


def build_report(case: FeederCase, plan: RestorationPlan) -> ReportBundle:
    cfg = case.config
    bundle = ReportBundle(case_name=case.name)
    assessments = assess_switchgears(case, plan)

    for g in case.switchgears:
        coef = physics.inrush_coefficient_pu(
            equivalent_capacitance(g, case), cfg.inrush_rise_time_s, cfg.base_kv, cfg.base_mva
        )
        dv_inrush = g.inrush_limit_pu / coef if coef > 0 else math.inf
        dv_limit = dv_inrush
        if cfg.delta_v_max_pu is not None:
            dv_limit = min(dv_limit, cfg.delta_v_max_pu)
        if not math.isfinite(dv_limit):
            dv_limit = 0.5 * cfg.v_max_sq + cfg.angle_window_rad
        points = []
        for t in range(plan.horizon):
            for ph in range(3):
                if plan.value("swap_any", (g.id, t, ph), 0.0) > 0.5:
                    points.append(
                        {
                            "t": t,
                            "phase": physics.PHASES[ph],
                            "theta_rad": plan.value("angle_diff", (g.id, t, ph), 0.0),
                            "dv_pu": plan.value("volt_diff", (g.id, t, ph), 0.0),
                            "inrush_pu": plan.value("inrush", (g.id, t, ph), 0.0),
                        }
                    )
        bundle.switching_zones.append(
            SwitchingZone(
                gear_id=g.id,
                theta_limit_rad=cfg.angle_window_rad,
                dv_inrush_limit_pu=dv_inrush,
                dv_explicit_limit_pu=cfg.delta_v_max_pu,
                polygon=_zone_polygon(cfg.angle_window_rad, dv_limit),
                points=points,
            )
        )

    q_rows = {}
    first_ok = {}
    for a in assessments:
        row = q_rows.setdefault(a.gear_id, [None] * plan.horizon)
        row[a.t] = a.q_factor
        gear = next(g for g in case.switchgears if g.id == a.gear_id)
        if (
            a.gear_id not in first_ok
            and a.q_factor is not None
            and a.q_factor <= gear.q_max
        ):
            first_ok[a.gear_id] = a.t
        if a.c_eq_farad <= 0 and a.gear_id not in first_ok:
            first_ok[a.gear_id] = 0
    bundle.q_schedule = {
        "q_max": {g.id: g.q_max for g in case.switchgears},
        "values": q_rows,
        "first_feasible": first_ok,
        "bypass": {g.id: plan.bypass(g.id) > 0.5 for g in case.switchgears},
    }

    for k in range(len(case.ess_units)):
        bundle.soc_profiles[k] = {
            "node": case.ess_units[k].node,
            "soc_kwh": [float(v) for v in plan.soc_kwh(k)],
        }

    acct = energy_accounting(case, plan)
    acct["max_inrush_pu"] = worst_closing_inrush(assessments)
    for k, info in acct["microgrids"].items():
        bundle.phase_table.append(
            {
                "microgrid": k,
                "root": info["root"],
                "original_a": info["original_shares"][0],
                "original_b": info["original_shares"][1],
                "original_c": info["original_shares"][2],
                "original_deviation": info["original_deviation"],
                "swapped_a": info["swapped_shares"][0],
                "swapped_b": info["swapped_shares"][1],
                "swapped_c": info["swapped_shares"][2],
                "swapped_deviation": info["swapped_deviation"],
            }
        )
    bundle.summary = plain({
        "restored_kwh": acct["restored_kwh"],
        "weighted_restored_kwh": acct["weighted_restored_kwh"],
        "renewable_kwh": acct["renewable_kwh"],
        "earliest_energization": acct["earliest_energization"],
        "max_inrush_pu": acct.get("max_inrush_pu", {}),
        "objective_kwh": plan.objective_pu_h * plan.kw_base,
        "status": plan.status,
    })
    return bundle


# ---------------------------------------------------------------------------
# SVG helpers


_SVG_W, _SVG_H = 640, 420
_MARGIN = 56


def _scale(lo: float, hi: float, size: float, margin: float):
    span = hi - lo if hi > lo else 1.0

    def to_px(v: float) -> float:
        return margin + (v - lo) / span * (size - 2 * margin)

    return to_px


def _svg_document(title: str, body: list[str], data_rows: list[dict]) -> str:
    payload = escape(json.dumps(plain(data_rows)))
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">'
        f"<metadata id='data'>{payload}</metadata>"
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white" stroke="none"/>'
        f'<text x="{_SVG_W / 2}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{escape(title)}</text>'
    )
    return head + "".join(body) + "</svg>"


def _polyline(points: list[tuple[float, float]], color: str, width: float = 1.5, close=False) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    tag = "polygon" if close else "polyline"
    return f'<{tag} points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'


def _axes(x_label: str, y_label: str) -> str:
    return (
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>'
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_SVG_H - _MARGIN}" stroke="black"/>'
        f'<text x="{_SVG_W / 2}" y="{_SVG_H - 12}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">{escape(x_label)}</text>'
        f'<text x="16" y="{_SVG_H / 2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {_SVG_H / 2})">{escape(y_label)}</text>'
    )


def rows_to_csv_text(rows: list[dict]) -> str:
    import csv
    import io

    buf = io.StringIO()
    if not rows:
        return "\n"
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(plain(row))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# emitters


def emit_plots(bundle: ReportBundle, outdir) -> list[str]:
    """Write one SVG and one CSV per figure class; returns written paths."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    # switching zones
    zone_rows = []
    for z in bundle.switching_zones:
        for th, dv in z.polygon:
            zone_rows.append(
                {"gear": z.gear_id, "kind": "zone", "theta_rad": th, "dv_pu": dv, "t": "", "phase": ""}
            )
        for p in z.points:
            zone_rows.append(
                {
                    "gear": z.gear_id,
                    "kind": "point",
                    "theta_rad": p["theta_rad"],
                    "dv_pu": p["dv_pu"],
                    "t": p["t"],
                    "phase": p["phase"],
                }
            )
    body = [_axes("angle difference (rad)", "voltage difference (pu)")]
    if bundle.switching_zones:
        th_max = max(z.theta_limit_rad for z in bundle.switching_zones) * 1.2
        dv_max = max(max(abs(dv) for _, dv in z.polygon) for z in bundle.switching_zones) * 1.2
        xs = _scale(-th_max, th_max, _SVG_W, _MARGIN)
        ys = _scale(dv_max, -dv_max, _SVG_H, _MARGIN)
        palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
        for i, z in enumerate(bundle.switching_zones):
            color = palette[i % len(palette)]
            body.append(_polyline([(xs(a), ys(b)) for a, b in z.polygon], color, close=True))
            for p in z.points:
                body.append(
                    f'<circle cx="{xs(p["theta_rad"]):.2f}" cy="{ys(p["dv_pu"]):.2f}" '
                    f'r="4" fill="{color}"/>'
                )
            body.append(
                f'<text x="{_SVG_W - _MARGIN + 4}" y="{_MARGIN + 14 * i}" font-size="11" '
                f'font-family="sans-serif" fill="{color}">{escape(z.gear_id)}</text>'
            )
    _write_file(out / "switching_zones.svg", _svg_document("allowable switching zones", body, zone_rows))
    _write_file(out / "switching_zones.csv", rows_to_csv_text(zone_rows))
    written += ["switching_zones.svg", "switching_zones.csv"]

    # q schedule
    q_rows = []
    for gid, vals in bundle.q_schedule.get("values", {}).items():
        for t, v in enumerate(vals):
            q_rows.append(
                {
                    "gear": gid,
                    "t": t,
                    "q_factor": "" if v is None else v,
                    "q_max": bundle.q_schedule["q_max"][gid],
                    "first_feasible": bundle.q_schedule["first_feasible"].get(gid, ""),
                    "bypass": int(bundle.q_schedule["bypass"].get(gid, False)),
                }
            )
    body = [_axes("period", "quality factor")]
    finite = [r["q_factor"] for r in q_rows if r["q_factor"] != ""]
    if finite:
        horizon = max(r["t"] for r in q_rows) + 1
        qmax = max(max(finite), max(bundle.q_schedule["q_max"].values())) * 1.2
        xs = _scale(0, max(horizon - 1, 1), _SVG_W, _MARGIN)
        ys = _scale(qmax, 0, _SVG_H, _MARGIN)
        palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
        for i, (gid, vals) in enumerate(sorted(bundle.q_schedule["values"].items())):
            pts = [(xs(t), ys(v)) for t, v in enumerate(vals) if v is not None]
            if pts:
                body.append(_polyline(pts, palette[i % len(palette)]))
            lim = bundle.q_schedule["q_max"][gid]
            body.append(
                _polyline([(xs(0), ys(lim)), (xs(horizon - 1), ys(lim))], "#999999", width=0.8)
            )
    _write_file(out / "q_schedule.svg", _svg_document("quality factor schedule", body, q_rows))
    _write_file(out / "q_schedule.csv", rows_to_csv_text(q_rows))
    written += ["q_schedule.svg", "q_schedule.csv"]

    # soc profiles
    soc_rows = []
    for k, info in bundle.soc_profiles.items():
        for t, v in enumerate(info["soc_kwh"]):
            soc_rows.append({"microgrid": k, "node": info["node"], "t": t, "soc_kwh": v})
    body = [_axes("period", "stored energy (kWh)")]
    if soc_rows:
        horizon = max(r["t"] for r in soc_rows) + 1
        top = max(r["soc_kwh"] for r in soc_rows) * 1.1 + 1e-9
        xs = _scale(0, max(horizon - 1, 1), _SVG_W, _MARGIN)
        ys = _scale(top, 0, _SVG_H, _MARGIN)
        palette = ["#1f77b4", "#d62728", "#2ca02c"]
        for k, info in sorted(bundle.soc_profiles.items()):
            pts = [(xs(t), ys(v)) for t, v in enumerate(info["soc_kwh"])]
            body.append(_polyline(pts, palette[int(k) % len(palette)]))
    _write_file(out / "soc_profiles.svg", _svg_document("storage state of charge", body, soc_rows))
    _write_file(out / "soc_profiles.csv", rows_to_csv_text(soc_rows))
    written += ["soc_profiles.svg", "soc_profiles.csv"]

    # phase balance table (CSV only plus a bar chart svg)
    table = bundle.phase_table
    body = [_axes("microgrid", "phase share")]
    if table:
        xs = _scale(-0.5, len(table) - 0.5 + 1e-9, _SVG_W, _MARGIN)
        ys = _scale(0.6, 0.0, _SVG_H, _MARGIN)
        colors = {"a": "#1f77b4", "b": "#ff7f0e", "c": "#2ca02c"}
        for i, row in enumerate(table):
            for j, ph in enumerate("abc"):
                val = row[f"swapped_{ph}"]
                if isinstance(val, float) and math.isnan(val):
                    continue
                x0 = xs(i - 0.3 + 0.2 * j)
                x1 = xs(i - 0.3 + 0.2 * (j + 1)) - 2
                y0 = ys(val)
                y1 = ys(0.0)
                body.append(
                    f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{max(x1 - x0, 1):.2f}" '
                    f'height="{max(y1 - y0, 0):.2f}" fill="{colors[ph]}"/>'
                )
    _write_file(out / "phase_balance.svg", _svg_document("phase load shares after swapping", body, table))
    _write_file(out / "phase_balance.csv", rows_to_csv_text(table))
    written += ["phase_balance.svg", "phase_balance.csv"]
    return [str(out / w) for w in written]


def _write_file(path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)
