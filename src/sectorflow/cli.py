"""Command-line front end: configs in, flows and audit artifacts out.

One JSON document describes a flow (gas, anchor state, ordered pieces,
optional shooting block); the subcommands build it, audit it, decompose
it, or export it. Solver utilities (oblique-shock inversion, wave
tracing, turning limits) run from plain flags without a config and
without loading the flow builder: shock-solve and max-turn need only the
shock algebra, pm-trace the wave integrator too.

Exit codes are a contract: 0 success, 1 a built flow failed its audit
or a solver hit the detached regime, 2 the flow could not be
constructed or closed, 3 the config or flags were malformed.
"""

import argparse
import os
import sys
from collections import namedtuple
from math import asin, atan2, cos, degrees, isfinite, pi, radians, sin, sqrt

from .gas import ENTROPY_TOL, SMOOTH_TOL, WEAK_TOL, PhaseBounds, PrimitiveState, make_gas
from .polar import TWO_PI
from .shock import (
    DetachedShockError,
    Orientation,
    max_deflection,
    max_deflection_limit,
    solve_shock_angle,
)

DEFAULT_SAMPLES = 720
# ceilings on RK4 steps per wave and ring samples: memory grows with both
MAX_STEPS = 100_000
MAX_SAMPLES = 1_000_000
KNOWN_FORMATS = ("csv", "json", "svg")

CSV_COLUMNS = "theta,rho,u,v,p,N,L,c,mach_n,s,phi"

# flowfield's names, bound here by the flow entry points on first use so
# that the solver commands start without the flow builder
_FLOWFIELD_NAMES = (
    "ClosureError", "ConstantPiece", "ContactEvent", "FlowDescription", "PMEvent",
    "ShockEvent", "Shooting", "bv_decompose", "build_flow", "evaluate", "sector_decompose",
)


def _bind_flowfield():
    """Bind _FLOWFIELD_NAMES here; a name already bound (a wrapper) stays."""
    from . import flowfield

    for name in _FLOWFIELD_NAMES:
        globals().setdefault(name, getattr(flowfield, name))


def __getattr__(name):
    if name not in _FLOWFIELD_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    _bind_flowfield()
    return globals()[name]


class ConfigError(Exception):
    """Schema or flag violation; the message starts with the bad key's path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__("%s: %s" % (path, message) if path else message)


class BuildError(Exception):
    """No flow could be marched or closed; the message names which failed."""


# --------------------------------------------------------------- parsing


def _mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    return value


def _object(doc, path, required, optional=()):
    """doc, an object with every required key and no key but those and the optional."""
    for key in _mapping(doc, path):
        if key not in required and key not in optional:
            raise ConfigError(_join(path, key), "unknown key")
    for key in required:
        if key not in doc:
            raise ConfigError(_join(path, key), "missing required key")
    return doc


def _join(path, key):
    return "%s.%s" % (path, key) if path else key


def _number(value, path):
    """A finite JSON number as a float; NaN, Infinity and overflowing ints fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number")
    try:
        x = float(value)
    except OverflowError:
        x = float("inf")
    if not isfinite(x):
        raise ConfigError(path, "must be finite")
    return x


def _flag_angle(text, flag):
    """Finite radians from text: a number, or degrees with a 'deg' suffix."""
    t = text.strip()
    try:
        rad = radians(float(t[:-3])) if t.endswith("deg") else float(t)
    except ValueError:
        raise ConfigError(flag, "cannot parse %r as an angle" % text)
    if not isfinite(rad):
        raise ConfigError(flag, "must be finite")
    return rad


def _angle(value, path):
    """Finite radians, or a string like "45deg"; normalized into [0, 2pi)."""
    if isinstance(value, str):
        if not value.strip().endswith("deg"):
            raise ConfigError(
                path, "angles are numbers (radians) or strings with a 'deg' suffix"
            )
        rad = _flag_angle(value, path)
    else:
        rad = _number(value, path)
    return rad % TWO_PI


def _positive(value, path):
    x = _number(value, path)
    if not x > 0.0:
        raise ConfigError(path, "must be positive")
    return x


def _count(value, path, minimum, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, "expected an integer")
    if value < minimum:
        raise ConfigError(path, "must be at least %d" % minimum)
    if maximum is not None and value > maximum:
        raise ConfigError(path, "must be at most %d" % maximum)
    return value


def _orientation(value, path):
    if value == "forward":
        return Orientation.FORWARD
    if value == "backward":
        return Orientation.BACKWARD
    raise ConfigError(path, "orientation must be 'forward' or 'backward'")


def _parse_gas(doc, path):
    doc = _object(doc, path, required=("gamma", "bounds"))
    gamma = _number(doc["gamma"], _join(path, "gamma"))
    if not gamma > 1.0:
        raise ConfigError(_join(path, "gamma"), "must exceed 1")
    bpath = _join(path, "bounds")
    fields = ("rho_min", "rho_max", "p_min", "p_max", "speed_max", "e_min")
    b = _object(doc["bounds"], bpath, required=fields)
    vals = {f: _positive(b[f], _join(bpath, f)) for f in fields}
    try:
        bounds = PhaseBounds(**vals)
        return make_gas(gamma, bounds)
    except ValueError as exc:
        raise ConfigError(bpath, str(exc))


def _parse_anchor(doc, path):
    doc = _object(doc, path, required=("theta", "rho", "u", "v", "p"))
    theta = _angle(doc["theta"], _join(path, "theta"))
    try:
        state = PrimitiveState(
            rho=_number(doc["rho"], _join(path, "rho")),
            u=_number(doc["u"], _join(path, "u")),
            v=_number(doc["v"], _join(path, "v")),
            p=_number(doc["p"], _join(path, "p")),
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc))
    return theta, state


def _parse_piece(doc, path):
    kind = _mapping(doc, path).get("kind")
    if kind == "shock":
        _object(
            doc,
            path,
            required=("kind", "orientation"),
            optional=("theta", "z", "balance", "L_sign"),
        )
        theta = _angle(doc["theta"], _join(path, "theta")) if "theta" in doc else None
        z = _positive(doc["z"], _join(path, "z")) if "z" in doc else None
        balance = doc.get("balance", False)
        if not isinstance(balance, bool):
            raise ConfigError(_join(path, "balance"), "expected true or false")
        if (theta is not None) + (z is not None) + balance != 1:
            raise ConfigError(path, "needs exactly one of theta, z, balance")
        L_sign = None
        if "L_sign" in doc:
            L_sign = _number(doc["L_sign"], _join(path, "L_sign"))
            if L_sign not in (1.0, -1.0):
                raise ConfigError(_join(path, "L_sign"), "must be 1 or -1")
        return ShockEvent(
            orientation=_orientation(doc["orientation"], _join(path, "orientation")),
            theta=theta,
            z=z,
            balance=balance,
            L_sign=L_sign,
        )
    if kind == "contact":
        _object(doc, path, required=("kind", "rho", "L"))
        return ContactEvent(
            rho=_positive(doc["rho"], _join(path, "rho")),
            L=_number(doc["L"], _join(path, "L")),
        )
    if kind == "wave":
        _object(
            doc,
            path,
            required=("kind", "orientation", "theta_end"),
            optional=("theta_start", "steps"),
        )
        return PMEvent(
            orientation=_orientation(doc["orientation"], _join(path, "orientation")),
            theta_end=_angle(doc["theta_end"], _join(path, "theta_end")),
            theta_start=_angle(doc["theta_start"], _join(path, "theta_start"))
            if "theta_start" in doc
            else None,
            steps=_count(doc["steps"], _join(path, "steps"), 1, MAX_STEPS)
            if "steps" in doc
            else None,
        )
    raise ConfigError(
        _join(path, "kind"), "unknown piece kind %r" % kind
    )


# a shock adjusts the theta or z it declares, a wave its theta_end
_SHOOT_FIELDS = ("theta", "theta_end", "z")


def _parse_solver(doc, path, events):
    doc = _object(doc, path, required=("shoot",))
    spath = _join(path, "shoot")
    s = _object(doc["shoot"], spath, required=("piece", "field", "bracket"))
    idx = _count(s["piece"], _join(spath, "piece"), 0)
    if idx >= len(events):
        raise ConfigError(_join(spath, "piece"), "no piece with index %d" % idx)
    field = s["field"]
    if field not in _SHOOT_FIELDS:
        raise ConfigError(
            _join(spath, "field"),
            "must be one of %s" % ", ".join(_SHOOT_FIELDS),
        )
    if getattr(events[idx], field, None) is None:
        raise ConfigError(
            _join(spath, "field"),
            "piece %d has no adjustable %r" % (idx, field),
        )
    bracket = s["bracket"]
    if not isinstance(bracket, list) or len(bracket) != 2:
        raise ConfigError(_join(spath, "bracket"), "expected [low, high]")
    lo = _number(bracket[0], _join(spath, "bracket"))
    hi = _number(bracket[1], _join(spath, "bracket"))
    if not lo < hi:
        raise ConfigError(_join(spath, "bracket"), "low bound must be below high")
    return Shooting(event_index=idx, field=field, bracket=(lo, hi))


def _parse_output(doc, path):
    doc = _object(doc, path, required=(), optional=("samples", "formats"))
    samples = _count(doc.get("samples", DEFAULT_SAMPLES), _join(path, "samples"), 2, MAX_SAMPLES)
    formats = doc.get("formats", ["json"])
    if not isinstance(formats, list):
        raise ConfigError(_join(path, "formats"), "expected a list")
    for f in formats:
        if f not in KNOWN_FORMATS:
            raise ConfigError(
                _join(path, "formats"),
                "unknown format %r (known: %s)" % (f, ", ".join(KNOWN_FORMATS)),
            )
        if formats.count(f) > 1:
            raise ConfigError(_join(path, "formats"), "duplicate format %r" % f)
    return samples, tuple(formats)


FlowConfig = namedtuple("FlowConfig", "gas description samples formats")


def parse_config(text):
    """Strict parse of a JSON flow config; unknown keys are errors."""
    import json

    _bind_flowfield()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", "not valid JSON: %s" % exc)
    doc = _object(
        doc, "", required=("gas", "anchor", "pieces"), optional=("solver", "output")
    )
    gas = _parse_gas(doc["gas"], "gas")
    anchor_theta, anchor_state = _parse_anchor(doc["anchor"], "anchor")
    if not isinstance(doc["pieces"], list):
        raise ConfigError("pieces", "expected a list")
    events = tuple(
        _parse_piece(p, "pieces[%d]" % i) for i, p in enumerate(doc["pieces"])
    )
    shooting = None
    if "solver" in doc:
        shooting = _parse_solver(doc["solver"], "solver", events)
    samples, formats = DEFAULT_SAMPLES, ("json",)
    if "output" in doc:
        samples, formats = _parse_output(doc["output"], "output")
    return FlowConfig(
        gas=gas,
        description=FlowDescription(anchor_theta, anchor_state, events, shooting),
        samples=samples,
        formats=formats,
    )


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(path), "cannot read config: %s" % exc.strerror)
    return parse_config(text)


def _build(cfg):
    try:
        return build_flow(cfg.gas, cfg.description)
    except ClosureError as exc:
        raise BuildError("closure failure: %s" % exc)
    except ValueError as exc:
        raise BuildError("construction failure: %s" % exc)


# --------------------------------------------------------------- exports


def _write_atomic(path, text):
    """Write through path.tmp; on an OSError the .tmp goes and a ConfigError names path."""
    tmp = "%s.tmp" % path
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise ConfigError(path, "cannot write: %s" % exc.strerror)


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)


def _csv_text(gas, theta, states):
    """Header plus one row per angle, from the state at each angle.

    N and L are the values of polar.to_polar, and phi is the direction of
    the velocity rebuilt from them, in (-pi, pi]; cells are Python float
    reprs, so they round-trip exactly. A row whose state is the previous
    row's object reuses its rho, u, v, p, c and s cells.
    """
    gamma = gas.gamma
    lines, last = [CSV_COLUMNS], None
    for t, state in zip(theta, states):
        if state is not last:
            last = state
            r, x, y, q = state
            c = sqrt(gamma * q / r)
            head, c_cell, s_cell = ",".join(map(repr, state)), repr(c), repr(q / r ** gamma)
        st, ct = sin(t), cos(t)
        N, L = x * st - y * ct, x * ct + y * st
        phi = atan2(-N * ct + L * st, N * st + L * ct)
        if phi == -pi:
            phi = pi
        lines.append("%r,%s,%r,%r,%s,%r,%s,%r" % (t, head, N, L, c_cell, N / c, s_cell, phi))
    return "\n".join(lines) + "\n"


def export_csv(flow, samples=DEFAULT_SAMPLES):
    """Right-continuous ring sampling; one row per sample plus the header."""
    _bind_flowfield()
    theta = [flow.anchor_theta + TWO_PI * k / samples for k in range(samples)]
    return _csv_text(flow.gas, theta, [evaluate(flow, t) for t in theta])


def _null_non_finite(x):
    """x with every non-finite float in it, at any depth, replaced by None."""
    if isinstance(x, dict):
        return {k: _null_non_finite(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_null_non_finite(v) for v in x]
    return None if isinstance(x, float) and not isfinite(x) else x


def audit_to_document(report):
    """AuditReport as plain data, ready for strict JSON: a non-finite number is None."""
    return _null_non_finite({
        "verdict": report.verdict,
        "weak_residual_max": list(report.weak_residual_max),
        "entropy_min": report.entropy_min,
        "entropy_violations": [
            {"interval": [a, b], "production": v}
            for (a, b), v in report.entropy_violations
        ],
        "smooth_residual_max": list(report.smooth_residual_max),
        "admissibility": [
            {"theta": t, "kind": k, "ok": ok, "detail": str(detail or "")}
            for t, k, ok, detail in report.admissibility
        ],
        "structure": {
            "ok": report.structure.ok,
            "checks": [
                {"name": name, "ok": ok, "detail": str(detail or "")}
                for name, ok, detail in report.structure.checks
            ],
        },
        "sector_count": report.sector_count,
        "tolerances": {"weak": WEAK_TOL, "entropy": ENTROPY_TOL, "smooth": SMOOTH_TOL},
    })


def export_json(report):
    import json

    return json.dumps(audit_to_document(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


# ring radius of the figure; the head and each fan's arc write it as 330.00
_SVG_R = 330.0
_SVG_HEAD = """\
<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" viewBox="-400 -400 800 800">
<desc>Piecewise self-similar flow over the circle of directions</desc>
<defs><marker id="ah" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="7" markerHeight="7" \
orient="auto-start-reverse"><path d="M 0 0 L 10 5 L 0 10 z" fill="#1a6"/></marker></defs>
<rect x="-400" y="-400" width="800" height="800" fill="#ffffff"/>
<circle cx="0" cy="0" r="330.00" fill="none" stroke="#bbb" stroke-width="1"/>
<circle cx="0" cy="0" r="3" fill="#333"/>"""
_SVG_LEGEND = """\
<line x1="-388" y1="-376" x2="-362" y2="-376" stroke="#c0392b" stroke-width="2.5"/>
<text x="-354" y="-372" font-family="sans-serif" font-size="14" fill="#222">shock</text>
<line x1="-388" y1="-354" x2="-362" y2="-354" stroke="#555" stroke-width="2.5" stroke-dasharray="7 5"/>
<text x="-354" y="-350" font-family="sans-serif" font-size="14" fill="#222">contact</text>
<rect x="-388" y="-337" width="26" height="10" fill="#cfe2ff"/>
<text x="-354" y="-328" font-family="sans-serif" font-size="14" fill="#222">wave fan</text>
<line x1="-388" y1="-310" x2="-362" y2="-310" stroke="#1a6" stroke-width="2.5" marker-end="url(#ah)"/>
<text x="-354" y="-306" font-family="sans-serif" font-size="14" fill="#222">flow direction</text>
</svg>"""


def _svg_point(theta, r):
    return "%.2f,%.2f" % (r * cos(theta), -r * sin(theta))


def export_svg(flow):
    """800x800 polar figure: shock rays, contact rays, shaded wave fans.

    Directions use the mathematical convention (angles increase
    counterclockwise); arrows show the velocity direction of each piece
    at its midpoint. Pure shapes and text, nothing external.
    """
    _bind_flowfield()
    R = _SVG_R
    parts = [_SVG_HEAD]
    for piece in flow.interval_pieces:
        if isinstance(piece, ConstantPiece):
            continue
        a, b = piece.theta_start, piece.theta_end
        large = 1 if (b - a) > pi else 0
        parts.append(
            '<path d="M 0,0 L %s A 330.00 330.00 0 %d 0 %s Z" fill="#cfe2ff" '
            'stroke="none"/>' % (_svg_point(a, R), large, _svg_point(b, R))
        )

    for markers, stroke in (
        (flow.shock_points, 'stroke="#c0392b" stroke-width="2.5"'),
        (flow.contact_points, 'stroke="#555" stroke-width="1.5" stroke-dasharray="7 5"'),
    ):
        for m in markers:
            parts.append(
                '<line x1="0" y1="0" x2="%.2f" y2="%.2f" %s/>'
                % (R * cos(m.theta), -R * sin(m.theta), stroke)
            )

    for piece in flow.interval_pieces:
        mid = 0.5 * (piece.theta_start + piece.theta_end)
        state = evaluate(flow, mid)
        phi = atan2(state.v, state.u)
        cxp, cyp = 0.72 * R * cos(mid), -0.72 * R * sin(mid)
        dx, dy = 22.0 * cos(phi), -22.0 * sin(phi)
        parts.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#1a6" '
            'stroke-width="2" marker-end="url(#ah)"/>'
            % (cxp - dx, cyp - dy, cxp + dx, cyp + dy)
        )
    parts.append(_SVG_LEGEND)
    return "\n".join(parts) + "\n"


def analyze_to_document(flow, samples=DEFAULT_SAMPLES):
    _bind_flowfield()
    sectors = sector_decompose(flow)
    sbv = bv_decompose(flow, samples=samples)
    return {
        "sectors": [
            {
                "theta_start": s.theta_start,
                "theta_end": s.theta_end,
                "direction": s.direction.value,
                "theta_bar": s.theta_bar,
                "turn": (s.theta_end - s.theta_start) - pi,
            }
            for s in sectors
        ],
        "shocks": [sp.theta for sp in flow.shock_points],
        "contacts": [cp.theta for cp in flow.contact_points],
        "total_variation": sbv.total_variation,
        "tv_lipschitz": sbv.tv_lipschitz,
        "lipschitz_constant": sbv.lipschitz_constant,
    }


# -------------------------------------------------------------- commands


def _summarize(flow):
    consts = sum(1 for p in flow.interval_pieces if isinstance(p, ConstantPiece))
    waves = len(flow.interval_pieces) - consts
    sectors = sector_decompose(flow)
    return (
        "built flow: %d constant pieces, %d waves, %d shocks, %d contacts, "
        "%d sectors" % (
            consts, waves, len(flow.shock_points), len(flow.contact_points),
            len(sectors),
        )
    )


def _artifact_path(out_dir, config_path, fmt):
    stem = os.path.splitext(os.path.basename(config_path))[0]
    return os.path.join(out_dir, "%s.%s" % (stem, fmt))


def _render(flow, fmt, samples):
    if fmt == "csv":
        return export_csv(flow, samples)
    if fmt == "svg":
        return export_svg(flow)
    from .verify import full_audit

    return export_json(full_audit(flow))


def _cmd_build(ns):
    """Summary and artifacts, all or nothing: a failed write removes the ones written."""
    cfg = _load_config(ns.config)
    flow = _build(cfg)
    lines = [_summarize(flow)]
    if ns.out is not None:
        try:
            os.makedirs(ns.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(ns.out, "cannot write: %s" % exc.strerror)
        written = []
        try:
            for fmt in cfg.formats:
                path = _artifact_path(ns.out, ns.config, fmt)
                _write_atomic(path, _render(flow, fmt, cfg.samples))
                written.append(path)
        except ConfigError:
            for path in written:
                os.remove(path)
            raise
        lines += ["wrote %s" % path for path in written]
    print("\n".join(lines))
    return 0


def _cmd_verify(ns):
    from .verify import full_audit

    cfg = _load_config(ns.config)
    flow = _build(cfg)
    report = full_audit(flow)
    _emit(export_json(report), ns.out)
    if ns.out is not None:
        print("wrote %s" % ns.out)
    return 0 if report.ok else 1


def _cmd_analyze(ns):
    import json

    cfg = _load_config(ns.config)
    flow = _build(cfg)
    doc = analyze_to_document(flow, cfg.samples)
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", ns.out)
    return 0


def _cmd_export(ns):
    cfg = _load_config(ns.config)
    samples = cfg.samples if ns.samples is None else _count(ns.samples, "--samples", 2, MAX_SAMPLES)
    flow = _build(cfg)
    out = ns.out
    if out is None:
        out = _artifact_path(".", ns.config, ns.format)
    _write_atomic(out, _render(flow, ns.format, samples))
    print("wrote %s" % out)
    return 0


_SOLVER_BOUNDS = PhaseBounds(
    rho_min=1e-6, rho_max=1e6, p_min=1e-6, p_max=1e6, speed_max=1e6, e_min=1e-12
)


def _solver_gas(gamma, mach=None):
    if not isfinite(gamma):
        raise ConfigError("--gamma", "must be finite")
    # the shock algebra squares the Mach number
    if mach is not None and not isfinite(mach * mach):
        raise ConfigError("--mach", "must be finite, with a finite square")
    if not gamma > 1.0:
        raise ConfigError("--gamma", "must exceed 1")
    return make_gas(gamma, _SOLVER_BOUNDS)


def _cmd_shock_solve(ns):
    gas = _solver_gas(ns.gamma, ns.mach)
    alpha = _flag_angle(ns.deflection, "--deflection")
    try:
        theta_s = solve_shock_angle(ns.mach, alpha, ns.branch, gas)
    except DetachedShockError as exc:
        print("no attached shock: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        raise ConfigError("shock-solve", str(exc))
    print(
        "shock angle: %.9f rad = %.4f deg (%s branch)"
        % (theta_s, degrees(theta_s), ns.branch)
    )
    print(
        "deflection %.4f deg at M = %.4f, gamma = %.4f"
        % (degrees(alpha), ns.mach, ns.gamma)
    )
    return 0


def _cmd_max_turn(ns):
    gas = _solver_gas(ns.gamma, ns.mach)
    if ns.mach is not None:
        if not ns.mach > 1.0:
            raise ConfigError("--mach", "must exceed 1")
        alpha = max_deflection(ns.mach, gas)
        print(
            "max turning angle at M = %.4f: %.4f deg (%.9f rad)"
            % (ns.mach, degrees(alpha), alpha)
        )
    else:
        alpha = max_deflection_limit(gas)
        print(
            "max turning angle: %.4f deg (%.9f rad), the high-Mach limit "
            "asin(1/gamma)" % (degrees(alpha), alpha)
        )
    print(
        "detachment criterion: a shock asked to turn the flow past this "
        "cannot stay attached"
    )
    return 0


def _cmd_pm_trace(ns):
    from .pmwave import integrate_pm

    gas = _solver_gas(ns.gamma, ns.mach)
    if not ns.mach > 1.0:
        raise ConfigError("--mach", "must exceed 1 (the wave edge is sonic)")
    try:
        start = PrimitiveState(rho=ns.rho, u=0.0, v=0.0, p=ns.p)
    except ValueError as exc:
        raise ConfigError("pm-trace", str(exc))
    c = start.sound_speed(gas)
    if not (c > 0.0 and isfinite(c)):
        raise BuildError(
            "construction failure: the sound speed sqrt(gamma p / rho) of --rho and"
            " --p is %r, not a positive finite number" % c
        )
    orient = Orientation.FORWARD if ns.orientation == "forward" else Orientation.BACKWARD
    # sonic entry: speed M c along the x axis, angle placed so N = +-c
    theta0 = asin(1.0 / ns.mach) * (1.0 if orient is Orientation.FORWARD else -1.0)
    start = PrimitiveState(rho=ns.rho, u=ns.mach * c, v=0.0, p=ns.p)
    span = _flag_angle(ns.span, "--span")
    if not span > 0.0:
        raise ConfigError("--span", "must be positive")
    if span > TWO_PI:
        raise ConfigError("--span", "must be at most one turn (2 pi)")
    if ns.steps is not None:
        _count(ns.steps, "--steps", 1, MAX_STEPS)
    try:
        wave = integrate_pm(
            start, theta0, theta0 + span, orient, gas, steps=ns.steps
        )
    except ValueError as exc:
        raise BuildError("construction failure: %s" % exc)
    _emit(_csv_text(gas, wave.thetas, [s for _, s in wave.samples]), ns.out)
    return 0


# ------------------------------------------------------------ entry point


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which this tool reserves
    # for closure failures; route flag problems through the config path
    def error(self, message):
        raise ConfigError("arguments", message)


def _make_parser():
    parser = _Parser(prog="sectorflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a flow and print a summary")
    p.add_argument("config")
    p.add_argument("--out", help="directory for the config's output formats")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("verify", help="build and run the full audit")
    p.add_argument("config")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("analyze", help="sector decomposition and variation split")
    p.add_argument("config")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("export", help="emit csv, svg, or json for a flow")
    p.add_argument("config")
    p.add_argument("--format", required=True, choices=KNOWN_FORMATS)
    p.add_argument("--out")
    p.add_argument("--samples", type=int)
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("shock-solve", help="invert the deflection relation")
    p.add_argument("--mach", type=float, required=True)
    p.add_argument("--deflection", required=True, help="radians or e.g. 10deg")
    p.add_argument("--branch", choices=("weak", "strong"), default="weak")
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(fn=_cmd_shock_solve)

    p = sub.add_parser("pm-trace", help="integrate a sonic wave from flag data")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--mach", type=float, required=True)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument(
        "--orientation", choices=("forward", "backward"), default="forward"
    )
    p.add_argument("--span", default="0.35", help="angular width, radians or deg")
    p.add_argument("--steps", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_pm_trace)

    p = sub.add_parser("max-turn", help="largest deflection a shock can produce")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--mach", type=float)
    p.set_defaults(fn=_cmd_max_turn)

    return parser


def main(argv=None):
    parser = _make_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.fn(ns)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 3
    except BuildError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
