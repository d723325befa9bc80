"""Acceptance criteria for the restoration engine.

Each test enforces one numbered criterion at its stated tolerance and prints
one PASS line with the measured margin (visible with ``pytest -s`` or
``-rP``).  Criteria that compare the search against enumeration use the
independent oracle in enum_oracle.py.
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from conftest import add_row, case_path, shipped_case
from enum_oracle import exhaustive_solve
from test_validator import RADIALITY_FAMILIES, _encoding_feasible
from ugrestore import physics
from ugrestore.feeder import case_to_dict, load_case, save_case
from ugrestore.formulation import BuildOptions, build_model
from ugrestore.model import SENSE_EQ, SENSE_GE, SENSE_LE, ModelBuilder
from ugrestore.catalog import VariableCatalog
from ugrestore.plan import RestorationPlan
from ugrestore.quantile import normal_cdf, normal_quantile
from ugrestore.solver import (
    SolverOptions,
    export_mps,
    greedy_warm_start,
    import_external_solution,
    make_diver,
    solve,
)
from ugrestore.solver.mps import write_solution_file
from ugrestore.validator import check_plan

EXACT = SolverOptions(time_limit_s=110, rel_gap=0.0, abs_gap=1e-11, oa_tol=1e-9, oa_search_tol=1e-8)


def _report(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n:2d} PASS: {detail}")


def _solve_case(case, options, **build_kw):
    model = build_model(case, BuildOptions(**build_kw))
    ws = greedy_warm_start(model, case, options)
    sol = solve(
        model,
        options,
        warm_start=ws,
        warm_start_source="greedy",
        diver=make_diver(model, case, options),
    )
    assert sol.x is not None, "solve produced no incumbent"
    plan = RestorationPlan.from_solution(model, sol.x, status=sol.status, gap=sol.gap)
    return model, sol, plan


def test_01_theorem_bracket_grid():
    """Exact phasor difference vs linearized step over the validity domain.

    Both substitutions carry the stated 0.02 slack; the domain follows the
    bracket's precondition (sending side at or above the trapped side).
    """
    t0 = time.monotonic()
    n = 50
    slack = 0.02
    vi = np.linspace(0.9, 1.1, n)[:, None, None]
    vj = np.linspace(0.9, 1.1, n)[None, :, None]
    th = np.linspace(0.0, math.radians(10.0), n)[None, None, :]
    exact = np.sqrt(vi**2 + vj**2 - 2 * vi * vj * np.cos(th))
    approx = 0.5 * (vi**2 - vj**2) + th
    domain = np.broadcast_to(vi >= vj, exact.shape)
    lo = np.where(domain, exact - approx, -np.inf)
    hi = np.where(domain, approx - math.sqrt(2.0) * exact, -np.inf)
    runtime = time.monotonic() - t0
    assert float(lo.max()) <= slack
    assert float(hi.max()) <= slack
    assert runtime < 5.0
    _report(
        1,
        f"grid {n}^3, worst lower margin {lo.max():.5f}, worst upper margin "
        f"{hi.max():.5f} (slack {slack}), {runtime:.2f} s",
    )


def test_02_phase_deviation_reproduction():
    rows = [
        ([0.425, 0.177, 0.398], 0.111),
        ([0.314, 0.330, 0.356], 0.017),
        ([0.423, 0.317, 0.260], 0.068),
        ([0.356, 0.312, 0.332], 0.018),
        ([0.289, 0.356, 0.355], 0.031),
        ([0.289, 0.356, 0.355], 0.031),
    ]
    worst = 0.0
    for shares, expect in rows:
        got = physics.phase_deviation(shares)
        worst = max(worst, abs(got - expect))
        assert abs(got - expect) <= 1e-3
    _report(2, f"six deviation values reproduced, worst error {worst:.5f} <= 0.001")


def test_03_swap_tables():
    # single-phase swapping rows: identity, to-leading, to-trailing
    load = np.array([0.0, 7.5, 0.0])
    checks = [
        (physics.SwapMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), [7.5, 0.0, 0.0]),
        (physics.SwapMatrix(np.eye(3)), [0.0, 7.5, 0.0]),
        (physics.SwapMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]]), [0.0, 0.0, 7.5]),
    ]
    for swap, expect in checks:
        assert np.array_equal(physics.apply_phase_swap(swap, load), expect)

    # connection-scenario table: exhaustive admissibility per scenario
    from test_formulation import SCENARIOS, TestSwapTransition

    tester = TestSwapTransition()
    for prev, cur, events, flag in SCENARIOS:
        tester.test_scenario_binary(prev, cur, events, flag)
    _report(3, "three swap rows exact; all eight connection scenarios exhaustively unique")


def test_04_permutation_algebra():
    rng = np.random.default_rng(11)
    for trial in range(100):
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        z = raw + raw.T
        for v, order in enumerate(physics.PERMUTATION_ORDERS):
            got = physics.reorder_impedance(physics.PERMUTATIONS[v], z)
            expect = np.empty((3, 3), dtype=complex)
            for i in range(3):
                for j in range(3):
                    expect[i, j] = z[order[i], order[j]]
            assert np.array_equal(got, expect), (trial, v)
    _report(4, "100 random symmetric matrices, all six reorderings element-exact")


def _two_gear_bracket_model(z1, z2, amp_sq=1.0):
    cat = VariableCatalog()
    for gid in ("g1", "g2"):
        cat.add_group(f"swap_{gid}", range(3), range(3), binary=True)
        cat.add_group(f"zeta_{gid}", list(range(6)), binary=True)
        cat.add_group(f"curr_{gid}", list(range(3)), lb=0.0, ub=amp_sq)
    variants = {
        "g1": [(p @ z1 @ p.T).real for p in physics.PERMUTATIONS],
        "g2": [(p @ z2 @ p.T).real for p in physics.PERMUTATIONS],
    }
    for gid in ("g1", "g2"):
        stack = np.stack(variants[gid])
        lo = 3.0 * min(0.0, float(stack.min())) * amp_sq
        hi = 3.0 * max(0.0, float(stack.max())) * amp_sq
        cat.add_group(f"y_{gid}", list(range(3)), lb=lo, ub=hi)
    b = ModelBuilder(cat)
    from ugrestore import bigm

    for gid in ("g1", "g2"):
        stack = np.stack(variants[gid])
        m_p = bigm.reorder_power_bracket(stack, amp_sq)
        for v in range(6):
            zc = cat.col(f"zeta_{gid}", v)
            for ph in range(3):
                for ps in range(3):
                    if physics.PERMUTATIONS[v][ph, ps] == 0.0:
                        add_row(
                            b,
                            "sel",
                            [(zc, 1.0), (cat.col(f"swap_{gid}", (ph, ps)), -1.0)],
                            SENSE_GE,
                            0.0,
                        )
            for ph in range(3):
                terms = [
                    (cat.col(f"curr_{gid}", ps), -float(variants[gid][v][ph, ps]))
                    for ps in range(3)
                ]
                ycol = cat.col(f"y_{gid}", ph)
                add_row(b, "ub", [(ycol, 1.0)] + terms + [(zc, -m_p)], SENSE_LE, 0.0)
                add_row(b, "lb", [(ycol, 1.0)] + terms + [(zc, m_p)], SENSE_GE, 0.0)
        add_row(b, "pick", [(cat.col(f"zeta_{gid}", v), 1.0) for v in range(6)], SENSE_LE, 5.0)
        for ph in range(3):
            b.add_obj(cat.col(f"y_{gid}", ph), 1.0)
    return cat, b.build({}), variants


def test_05_linearization_equivalence():
    """Bracket-encoded LP equals direct product on a two-switchgear block."""
    rng = np.random.default_rng(5)
    raw1 = rng.uniform(0.05, 0.4, size=(3, 3))
    raw2 = rng.uniform(0.02, 0.3, size=(3, 3))
    z1 = ((raw1 + raw1.T) / 2) * (1 + 1j)
    z2 = ((raw2 + raw2.T) / 2) * (1 + 1j)
    cat, model, variants = _two_gear_bracket_model(z1, z2)
    m = model.matrix().tocsr()
    le = np.flatnonzero(model.sense == SENSE_LE)
    ge = np.flatnonzero(model.sense == SENSE_GE)
    a_ub = sp.vstack([m[le], -m[ge]], format="csr")
    b_ub = np.concatenate([model.rhs[le], -model.rhs[ge]])
    worst = 0.0
    for v1, v2 in itertools.product(range(6), range(6)):
        for _ in range(20):
            currents = {"g1": rng.uniform(0.0, 1.0, 3), "g2": rng.uniform(0.0, 1.0, 3)}
            lb = model.col_lb.copy()
            ub = model.col_ub.copy()
            for gid, v in (("g1", v1), ("g2", v2)):
                for ph in range(3):
                    for ps in range(3):
                        col = cat.col(f"swap_{gid}", (ph, ps))
                        lb[col] = ub[col] = float(physics.PERMUTATIONS[v][ph, ps])
                for i in range(3):
                    col = cat.col(f"curr_{gid}", i)
                    lb[col] = ub[col] = float(currents[gid][i])
            res = linprog(
                c=-model.obj,
                A_ub=a_ub,
                b_ub=b_ub,
                bounds=np.column_stack((lb, ub)),
                method="highs",
            )
            assert res.status == 0
            direct = float(
                (variants["g1"][v1] @ currents["g1"]).sum()
                + (variants["g2"][v2] @ currents["g2"]).sum()
            )
            worst = max(worst, abs(-res.fun - direct))
            assert abs(-res.fun - direct) <= 1e-8, (v1, v2)
    _report(5, f"36 permutation pairs x 20 current draws, worst LP gap {worst:.2e} <= 1e-8")


def test_06_q_gate_equivalence():
    rng = np.random.default_rng(6)
    disagreements = 0
    for _ in range(1000):
        c = rng.uniform(1e-8, 5e-7)
        q_max = rng.uniform(0.01, 0.3)
        zip_z = rng.uniform(0.2, 0.4)
        p_tot = rng.uniform(1e-4, 1.5)
        thr = physics.q_gate_load_threshold(c, q_max, zip_z)
        if (p_tot >= thr) != (physics.q_factor_from_load(c, p_tot, zip_z) <= q_max):
            disagreements += 1
    assert disagreements == 0
    l_osc = physics.resonant_inductance(74.76e-9)
    assert abs(l_osc - 94.1) <= 0.1
    _report(6, f"1000 draws, 0 disagreements; matched inductance {l_osc:.2f} H in 94.1 +/- 0.1")


def test_07_radiality_exhaustive():
    from ugrestore.validator import radiality_check

    total = 0
    for fixture in ("rad_loop4", "rad_tworoot5"):
        case = shipped_case(fixture)
        model = build_model(case)
        switches = [l.index for l in case.switch_lines]
        wires = [l.index for l in case.wire_lines]
        roots = [e.node for e in case.ess_units]
        for bits in itertools.product((0, 1), repeat=len(switches)):
            closed = {li for li, b in zip(switches, bits) if b}
            oracle_ok, _ = radiality_check(case, list(closed) + wires, roots)
            enc_ok = _encoding_feasible(case, model, closed)
            assert oracle_ok == enc_ok, (fixture, bits)
            total += 1
    _report(7, f"graph oracle == commodity-flow feasibility on all {total} subsets")


def test_08_solver_exactness_at_toy_scale():
    details = []
    for name in ("toy_pair", "toy_fork", "toy_pv"):
        case = shipped_case(name)
        model = build_model(case)
        n_bin = len(model.free_binary_columns)
        assert n_bin <= 12
        t0 = time.monotonic()
        enum_val, _, lps = exhaustive_solve(model)
        t_enum = time.monotonic() - t0
        t0 = time.monotonic()
        ws = greedy_warm_start(model, case, EXACT)
        sol = solve(model, EXACT, warm_start=ws, warm_start_source="greedy")
        t_bnb = time.monotonic() - t0
        assert sol.status == "optimal"
        diff = abs(sol.objective - enum_val)
        assert diff <= 1e-9 * max(1.0, abs(enum_val))
        assert t_enum < 60.0 and t_bnb < 60.0
        details.append(f"{name}({n_bin} bins, diff {diff:.1e}, {t_enum:.1f}/{t_bnb:.1f} s)")
    _report(8, "; ".join(details))


def test_09_directional_comparatives():
    case = shipped_case("reduced13")
    opts = SolverOptions(time_limit_s=70, rel_gap=5e-3)
    results = {}
    bounds = {}
    times = {}
    for label, kw in (
        ("swap+gate", {}),
        ("noswap+gate", {"no_swap": True}),
        ("swap+nogate", {"ferro_gate": False}),
    ):
        t0 = time.monotonic()
        model, sol, plan = _solve_case(case, opts, **kw)
        times[label] = time.monotonic() - t0
        assert times[label] < 120.0, f"{label} exceeded the solve budget"
        results[label] = sol.objective_kwh
        bounds[label] = sol.bound * sol.kwh_factor
    assert results["noswap+gate"] <= results["swap+gate"] + 1e-6
    assert results["swap+gate"] <= results["swap+nogate"] + 1e-6
    # the same order by proof: each restricted plan stays under the relaxed proven bound
    assert results["noswap+gate"] <= bounds["swap+gate"] + 1e-6
    assert results["swap+gate"] <= bounds["swap+nogate"] + 1e-6
    _report(
        9,
        f"no-swap {results['noswap+gate']:.1f} <= swap {results['swap+gate']:.1f} <= "
        f"no-gate {results['swap+nogate']:.1f} kWh "
        f"(times {times['noswap+gate']:.0f}/{times['swap+gate']:.0f}/{times['swap+nogate']:.0f} s)",
    )


def test_10_relaxation_exactness():
    worst = 0.0
    for name in ("toy_pair", "toy_pv", "toy_gear3"):
        case = shipped_case(name)
        model, sol, plan = _solve_case(case, EXACT)
        report = check_plan(case, plan)
        rec = report.record("cone-tightness")
        assert rec.passed, (name, rec.worst_residual)
        worst = max(worst, rec.worst_residual)
    _report(10, f"active-line cone residual {worst:.2e} <= 1e-4 relative on all toy solves")


def test_11_round_trips(tmp_path):
    # case save/load identity
    case = shipped_case("toy_gear3")
    save_case(case, tmp_path / "case.json")
    again = load_case(tmp_path / "case.json")
    assert case_to_dict(case) == case_to_dict(again)

    # export/import objective identity
    model, sol, plan = _solve_case(shipped_case("toy_pv"), EXACT)
    export_mps(model, tmp_path / "m.mps", tmp_path / "m.cones", tmp_path / "m.names")
    write_solution_file(model, sol.x, tmp_path / "m.sol")
    back = import_external_solution(model, tmp_path / "m.sol")
    obj_err = abs(back.objective - sol.objective)
    assert obj_err <= 1e-9

    # stored-energy replay identity
    case_pv = shipped_case("toy_pv")
    report = check_plan(case_pv, plan)
    soc_err = report.metrics["soc_replay_residual_kwh"]
    assert soc_err <= 1e-6
    _report(
        11,
        f"case round trip exact; import objective error {obj_err:.1e} <= 1e-9; "
        f"stored-energy replay {soc_err:.1e} <= 1e-6 kWh",
    )


def test_12_normal_quantile_accuracy():
    rng = np.random.default_rng(12)
    ps = rng.uniform(0.001, 0.999, size=10_000)
    worst = max(abs(normal_cdf(normal_quantile(p)) - p) for p in ps)
    assert worst < 1e-9
    _report(12, f"10^4 probabilities, worst |cdf(quantile(p)) - p| = {worst:.1e} < 1e-9")
