"""Piecewise self-similar flows of a polytropic gas on the circle of directions.

The names below are what the command line, the builder and the audit run,
plus the algebra the acceptance checks and the benchmark call directly
(the Roe matrix and eigensystem, rh_residual). They load on first use
(PEP 562), so importing the package, the command line or the solver
modules does not import numpy. Only the audit does (verify, with
evaluate_many, and the Roe algebra); the builder, analyze and the CSV and
SVG exporters run on plain floats.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "gas": (
        "GasModel",
        "PhaseBounds",
        "PrimitiveState",
        "ConservedState",
        "make_gas",
        "primitive_to_conserved",
        "conserved_to_primitive",
        "physical_fluxes",
        "in_phase_space",
    ),
    "polar": ("to_polar", "from_polar", "PolarState"),
    "shock": (
        "Orientation",
        "ShockSolution",
        "shock_from_strength",
        "classify_discontinuity",
        "rh_residual",
        "check_admissibility",
        "deflection_angle",
        "solve_shock_angle",
        "max_deflection",
        "max_deflection_limit",
        "lax_neighborhood_bound",
    ),
    "pmwave": ("PMWave", "WaveKind", "integrate_pm", "classify_pm"),
    "roe": ("jacobian", "roe_average", "roe_matrix", "eigensystem", "genuine_nonlinearity"),
    "flowfield": (
        "ClosureError",
        "ConstantPiece",
        "ShockPoint",
        "ContactPoint",
        "FlowField",
        "ShockEvent",
        "ContactEvent",
        "PMEvent",
        "Shooting",
        "FlowDescription",
        "Sector",
        "SBVDecomposition",
        "build_flow",
        "evaluate",
        "sector_decompose",
        "bv_decompose",
        "shock_separation_floor",
    ),
    "verify": (
        "AuditReport",
        "StructureReport",
        "validate_structure",
        "evaluate_many",
        "smooth_residual",
        "full_audit",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
