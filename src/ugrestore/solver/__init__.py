from ugrestore.solver.bnb import Solution, SolverOptions, solve
from ugrestore.solver.cuts import cone_violations, soc_cut
from ugrestore.solver.lp import LpBackend, LpResult
from ugrestore.solver.mps import export_mps, import_external_solution, parse_mps
from ugrestore.solver.warmstart import greedy_warm_start, make_diver

__all__ = [
    "Solution",
    "SolverOptions",
    "solve",
    "cone_violations",
    "soc_cut",
    "LpBackend",
    "LpResult",
    "export_mps",
    "import_external_solution",
    "parse_mps",
    "greedy_warm_start",
    "make_diver",
]
