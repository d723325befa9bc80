"""Restoration plan: every decision variable of a solved run, serialized.

A plan is the bridge between the solver and the validator: it stores the
full column assignment grouped by symbol, survives a JSON round trip
exactly, and can be re-expanded into a vector against the same model for
constraint replay.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from ugrestore.catalog import CatalogError
from ugrestore.feeder import FeederCase
from ugrestore.jsonutil import plain
from ugrestore.model import LinearModel

PLAN_FORMAT = "ugrestore-plan-v1"


class PlanError(ValueError):
    pass


@dataclass
class RestorationPlan:
    case_name: str
    horizon: int
    period_hours: float
    kw_base: float
    objective_pu_h: float
    status: str
    gap: float
    no_swap: bool
    ferro_gate: bool
    groups: dict[str, list] = field(default_factory=dict)
    solver_info: dict = field(default_factory=dict)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_solution(
        cls, model: LinearModel, x: np.ndarray, *, status: str, gap: float, solver_info=None
    ) -> "RestorationPlan":
        groups: dict[str, list] = {}
        x = np.asarray(x, dtype=float)
        for name in model.catalog.group_names:
            g = model.catalog.group(name)
            values = x[g.start : g.start + g.size].tolist()
            groups[name] = [[*key, val] for key, val in zip(itertools.product(*g.axes), values)]
        return cls(
            case_name=str(model.meta.get("name", "")),
            horizon=int(model.meta.get("horizon", 0)),
            period_hours=float(model.meta.get("period_hours", 1.0)),
            kw_base=float(model.meta.get("kw_base", 1.0)),
            objective_pu_h=float(model.obj @ x),
            status=status,
            gap=float(gap),
            no_swap=bool(model.meta.get("no_swap", False)),
            ferro_gate=bool(model.meta.get("ferro_gate", True)),
            groups=groups,
            solver_info=dict(solver_info or {}),
        )

    def to_vector(self, model: LinearModel) -> np.ndarray:
        """Expand back into a column vector for replay against ``model``."""
        x = model.col_lb.copy()
        for name, entries in self.groups.items():
            if not model.catalog.has_group(name):
                raise PlanError(f"model has no column group {name!r}")
            g = model.catalog.group(name)
            short = next((e for e in entries if len(e) != len(g.axes) + 1), None)
            if short is not None:
                *key, _ = short
                raise PlanError(f"{name}: no column for key {tuple(key) if len(key) != 1 else key[0]!r}")
            try:
                if entries:
                    *keys, values = zip(*entries)
                    x[g.cols(keys)] = values
            except CatalogError as exc:
                raise PlanError(exc.args[0]) from None
        return x

    # -- typed accessors ------------------------------------------------------

    def _lookup(self, group: str) -> dict:
        cached = getattr(self, "_cache", None)
        if cached is None:
            cached = {}
            object.__setattr__(self, "_cache", cached)
        if group not in cached:
            table = {}
            for entry in self.groups.get(group, ()):
                *key_parts, val = entry
                key = tuple(key_parts) if len(key_parts) > 1 else key_parts[0]
                table[key] = val
            cached[group] = table
        return cached[group]

    def value(self, group: str, key, default: float | None = None) -> float:
        table = self._lookup(group)
        if key in table:
            return table[key]
        if default is not None:
            return default
        raise PlanError(f"{group}: no value for {key!r}")

    def gamma(self, line_index: int) -> float:
        return self.value("gamma", line_index)

    def beta(self, gear_id: str, t: int) -> float:
        return self.value("beta", (gear_id, t))

    def alpha(self, gear_id: str, t: int) -> float:
        return self.value("alpha", (gear_id, t))

    def bypass(self, gear_id: str) -> float:
        return self.value("gate_bypass", gear_id, 0.0)

    def swap_matrix(self, gear_id: str, t: int) -> np.ndarray:
        m = np.zeros((3, 3))
        for ph in range(3):
            for ps in range(3):
                m[ph, ps] = self.value("swap", (gear_id, t, ph, ps))
        return m

    def microgrid_of(self, node_id: str, n_ess: int) -> int | None:
        for k in range(n_ess):
            if self.value("u", (node_id, k), 0.0) > 0.5:
                return k
        return None

    def served_p(self, node_id: str, t: int) -> np.ndarray:
        return np.array([self.value("load_p", (node_id, t, ph), 0.0) for ph in range(3)])

    def served_q(self, node_id: str, t: int) -> np.ndarray:
        return np.array([self.value("load_q", (node_id, t, ph), 0.0) for ph in range(3)])

    def soc_kwh(self, k: int) -> np.ndarray:
        return np.array([self.value("ess_soc", (k, t)) for t in range(self.horizon)]) * self.kw_base

    def closed_lines(self, case: FeederCase) -> list[int]:
        out = []
        for l in case.lines:
            if not l.is_switch or self.gamma(l.index) > 0.5:
                out.append(l.index)
        return out

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """The plan as strict JSON data: a gap or a solver figure that is not finite is None."""
        return {
            "format": PLAN_FORMAT,
            "case_name": self.case_name,
            "horizon": self.horizon,
            "period_hours": self.period_hours,
            "kw_base": self.kw_base,
            "objective_pu_h": self.objective_pu_h,
            "objective_kwh": self.objective_pu_h * self.kw_base,
            "status": self.status,
            "gap": plain(self.gap),
            "no_swap": self.no_swap,
            "ferro_gate": self.ferro_gate,
            "solver_info": plain(self.solver_info),
            "groups": self.groups,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_dict(), allow_nan=False) + "\n")  # dumps, unlike dump, runs the C encoder

    @classmethod
    def from_dict(cls, data: dict) -> "RestorationPlan":
        if data.get("format") != PLAN_FORMAT:
            raise PlanError(f"unsupported plan format {data.get('format')!r}")
        return cls(
            case_name=data["case_name"],
            horizon=data["horizon"],
            period_hours=data["period_hours"],
            kw_base=data["kw_base"],
            objective_pu_h=data["objective_pu_h"],
            status=data["status"],
            gap=np.inf if data["gap"] is None else data["gap"],
            no_swap=data["no_swap"],
            ferro_gate=data["ferro_gate"],
            groups={k: [list(e) for e in v] for k, v in data["groups"].items()},
            solver_info=data.get("solver_info", {}),
        )

    @classmethod
    def load(cls, path) -> "RestorationPlan":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise PlanError(f"cannot read plan {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise PlanError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
