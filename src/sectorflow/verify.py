"""The audit of a built flow: balance-law quadrature and structure checks.

Everything here rests on one identity: along the circle of directions the
normal flux G(theta) = sin(theta) f^x(U) - cos(theta) f^y(U) is an exact
antiderivative of the tangential flux H(theta) = cos(theta) f^x + sin(theta)
f^y, in the distributional sense. Smooth pieces satisfy it pointwise, jumps
satisfy it through flux continuity, so the boundary-minus-integral residual

    G(theta2) - G(theta1) - integral of H

vanishes on every subinterval of a genuine flow. The entropy analogue
replaces the fluxes by the pair (rho N s, rho L s) built on the surrogate
s = p / rho^gamma; there the residual need not vanish, but its sign is
constrained: shocks produce entropy, so the production integral must be
nonnegative.

Quadrature is composite Gauss-Legendre. Panels are split at every piece
boundary and at every stored wave sample, so each panel's integrand is
analytic and discontinuities only ever sit on panel edges, never inside.
The quadrature nodes of all audited intervals, together with their
endpoints, go through one batched evaluation (evaluate_many) and one flux
call; each interval's sums are reductions over that single node array.

validate_structure checks shock neighborhoods, one compression per stretch,
the inflow region's shape, opposite-shock separation, shock admissibility
and each sector's turning. A flow stores a jump as its angle and kind
only, so every check reads the jump's sides as evaluate's limits there,
taken once per jump: classify_discontinuity gives the kind they form,
check_admissibility the margins of the shock, and the jump norm and the
deflection follow from the same two states. full_audit reads its sectors
and jump rows there.
"""

from collections import namedtuple
from math import pi, sqrt

import numpy as np

from .flowfield import (
    ConstantPiece,
    ContactPoint,
    PMPiece,
    ShockPoint,
    _conserved_jump,
    _flow_angle_of,
    _jump_limits,
    evaluate,  # not called: bench/workloads.py counts calls at this name
    sector_decompose,
    shock_separation_floor,
)
from .gas import ENTROPY_TOL, NO_JUMP_TOL, SMOOTH_TOL, STRUCTURE_TOL, WEAK_TOL
from .gas import ray_fluxes, relative_gap
from .pmwave import WaveKind, classify_pm, pm_wave_arrays, pm_wave_state
from .polar import TWO_PI, wrap_signed
from .shock import (
    DiscontinuityKind, Orientation, check_admissibility, classify_discontinuity,
    lax_neighborhood_bound,
)

_QUAD_POINTS = 8  # Gauss-Legendre nodes per panel in scaled_residuals
_QUAD_RULE = np.polynomial.legendre.leggauss(_QUAD_POINTS)  # (nodes, weights) on [-1, 1]
_SMOOTH_SAMPLES = 720  # smooth_residual's samples per turn
_SMOOTH_STEP = 1e-5  # smooth_residual's difference step

_MAX_PANEL = 0.25
_SAME_BREAK = 1e-13  # breakpoints closer than this are one panel edge
_INSIDE = 1e-12  # how far inside an interval a piece must reach to be in it


def evaluate_many(flow, thetas):
    """(rho, u, v, p) arrays at many angles, elementwise what evaluate gives.

    evaluate's wrap and right-continuous lookup; a wave is clamped at its end.
    """
    t = np.mod(np.asarray(thetas, dtype=float) - flow.anchor_theta, TWO_PI)
    t = flow.anchor_theta + np.where(t >= TWO_PI, t - TWO_PI, t)
    idx = np.maximum(np.searchsorted(flow._starts, t, side="right") - 1, 0)
    pieces = flow.interval_pieces
    table = [p.state if isinstance(p, ConstantPiece) else (np.nan,) * 4 for p in pieces]
    out = np.array(table)[idx].T.copy()
    for k, p in enumerate(pieces):
        if isinstance(p, PMPiece):
            on = idx == k
            out[:, on] = pm_wave_arrays(p.wave, np.minimum(t[on], p.theta_end))
    return tuple(out)


def _breakpoints(flow):
    """Sorted piece boundaries and wave samples, repeated one turn down and up."""
    pts = []
    for p in flow.interval_pieces:
        pts += (p.theta_start, p.theta_end)
        if isinstance(p, PMPiece):
            pts += p.wave.thetas
    pts = np.array(pts)
    return np.sort(np.concatenate((pts - TWO_PI, pts, pts + TWO_PI)))


def _panels(breaks, t1, t2, subdiv):
    """Panel ends (lo, hi) over [t1, t2], split at every breakpoint inside."""
    inner = breaks[(breaks > t1 + _SAME_BREAK) & (breaks < t2 - _SAME_BREAK)]
    inner = inner[np.diff(inner, prepend=-np.inf) > _SAME_BREAK]
    edges = np.concatenate(([t1], inner, [t2]))
    a, b = edges[:-1], edges[1:]
    n = np.maximum(1, np.ceil((b - a) / _MAX_PANEL).astype(int)) * max(1, subdiv)
    k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    a, b, n = np.repeat(a, n), np.repeat(b, n), np.repeat(n, n)
    return a + (b - a) * k / n, a + (b - a) * (k + 1) / n


def _residuals(flow, intervals, rule, subdiv):
    """Raw weak and entropy residuals of many intervals from one evaluation.

    Returns (weak, weak_scale, production, production_scale): weak holds
    the (n, 4) boundary-minus-integral residuals, production the n entropy
    productions (the entropy row's residual with its sign flipped), and
    each scale the largest magnitude among the terms its residual combines,
    floored at 1.
    """
    x, w = rule
    breaks = _breakpoints(flow)
    panels = [_panels(breaks, t1, t2, subdiv) for t1, t2 in intervals]
    lo = np.concatenate([a for a, _ in panels])
    hi = np.concatenate([b for _, b in panels])
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel()
    ends = np.asarray(intervals, dtype=float)
    thetas = np.concatenate((nodes, ends[:, 0], ends[:, 1]))
    G, H = ray_fluxes(*evaluate_many(flow, thetas), thetas, flow.gas.gamma)

    m, n = len(nodes), len(intervals)
    counts = np.array([len(a) for a, _ in panels]) * len(x)
    owner = np.repeat(np.arange(n), counts)
    g1, g2 = G[:, m : m + n], G[:, m + n :]
    residual = g2 - g1 - [np.bincount(owner, weights * h, n) for h in H[:, :m]]
    first = np.cumsum(counts) - counts
    size = np.maximum.reduce(
        [np.maximum.reduceat(np.abs(H[:, :m]), first, axis=1), np.abs(g1), np.abs(g2)]
    )
    scale = np.maximum(1.0, [size[:4].max(axis=0), size[4]])
    return residual[:4].T, scale[0], -residual[4], scale[1]


def scaled_residuals(flow, intervals):
    """Weak residuals (n, 4) and entropy productions (n,) of many intervals.

    Each interval's values are divided by its own magnitude scale, so one
    tolerance serves flows of any size; weak residuals are magnitudes.
    """
    weak, weak_scale, production, production_scale = _residuals(
        flow, intervals, _QUAD_RULE, 1
    )
    return np.abs(weak) / weak_scale[:, None], production / production_scale


def smooth_residual(flow):
    """Scaled central-difference residual of G' = H on smooth pieces.

    Samples sit strictly inside constant and wave pieces (never within 2h
    of an edge), so no difference stencil ever crosses a discontinuity.
    Each equation is scaled by the larger of 1 and its own terms.
    """
    h = _SMOOTH_STEP
    ts = []
    for piece in flow.interval_pieces:
        lo, hi = piece.theta_start, piece.theta_end
        width = hi - lo
        if width <= 6.0 * h:
            continue
        n = max(3, int(_SMOOTH_SAMPLES * width / TWO_PI))
        ts.append(lo + 2.0 * h + (width - 4.0 * h) * (np.arange(n) + 0.5) / n)
    t = np.concatenate(ts)
    stencil = np.concatenate((t + h, t - h, t))
    G, H = ray_fluxes(*evaluate_many(flow, stencil), stencil, flow.gas.gamma)
    n = len(t)
    fd = (G[:4, :n] - G[:4, n : 2 * n]) / (2.0 * h)
    rhs = H[:4, 2 * n :]
    scale = np.maximum(1.0, np.maximum(np.abs(fd), np.abs(rhs)))
    return tuple((np.abs(fd - rhs) / scale).max(axis=1).tolist())


class StructureReport(namedtuple("StructureReport", "checks sectors jumps")):
    """Named checks, the sectors they used and one (theta, kind, ok, detail) row per jump."""

    __slots__ = ()

    @property
    def ok(self):
        return all(passed for _, passed, _ in self.checks)

    def named(self, name):
        for n, passed, detail in self.checks:
            if n == name:
                return passed, detail
        raise KeyError(name)


def _pieces_in(flow, a, b):
    """Pieces intersecting the unwrapped interval [a, b].

    b may exceed anchor_theta + 2 pi; pieces reached through the seam come
    back with the matching shift. Entries are (sort angle, piece, shift).
    """
    out = []
    for shift in (0.0, TWO_PI):
        for p in flow.pieces:
            if isinstance(p, (ShockPoint, ContactPoint)):
                t = p.theta + shift
                if a + _INSIDE < t < b - _INSIDE:
                    out.append((t, p, shift))
            else:
                s, e = p.theta_start + shift, p.theta_end + shift
                if e > a + _INSIDE and s < b - _INSIDE:
                    out.append((max(s, a), p, shift))
    out.sort(key=lambda q: q[0])
    return out


def _jump_norm(gas, left, right):
    return sqrt(sum(d * d for d in _conserved_jump(gas, left, right)))


def _constant_width(flow, piece):
    """Width of an interval piece if it is a constant, else 0.

    A constant that straddles the closure seam is stored as two pieces;
    the builder never places a jump at the seam, so their widths merge.
    """
    if not isinstance(piece, ConstantPiece):
        return 0.0
    width = piece.theta_end - piece.theta_start
    first, last = flow.interval_pieces[0], flow.interval_pieces[-1]
    if piece is first or piece is last:
        other = last if piece is first else first
        if (
            isinstance(other, ConstantPiece)
            and relative_gap(piece.state, other.state) <= NO_JUMP_TOL
        ):
            width += other.theta_end - other.theta_start
    return width


def _judge(gas, point, left, right):
    """The (theta, kind, ok, detail) row of one jump, from the flow's limits beside it."""
    theta = point.theta
    found = classify_discontinuity(left, right, theta, gas)
    if isinstance(point, ContactPoint):
        kind, expect = "contact", DiscontinuityKind.CONTACT
    else:
        kind, expect = "shock", DiscontinuityKind(point.orientation.value + "_shock")
    detail = ""
    if found.kind is not expect:
        detail = found.reason or "the flow's limits classify as %s" % found.kind.value
    elif found.shock is not None:
        detail = check_admissibility(found.shock, gas).first_failure() or ""
    return theta, kind, not detail, detail


def _piece_turning(flow, a, b, limits):
    """Signed flow-angle change accumulated from a to b along theta.

    Constants contribute nothing, jumps the deflection between their
    (left, right) limits, smooth waves the flow-angle difference between
    their clipped endpoints.
    """
    total = 0.0
    for _, p, shift in _pieces_in(flow, a, b):
        if isinstance(p, (ShockPoint, ContactPoint)):
            left, right = limits[p]
            total += wrap_signed(_flow_angle_of(right) - _flow_angle_of(left))
        elif isinstance(p, PMPiece):
            w = p.wave
            lo = max(w.theta_start, a - shift)
            hi = min(w.theta_end, b - shift)
            s_lo = pm_wave_state(w, lo)
            s_hi = pm_wave_state(w, hi)
            total += wrap_signed(_flow_angle_of(s_hi) - _flow_angle_of(s_lo))
    return total


def validate_structure(flow):
    """Report-valued checks of the structural theorems on a built flow."""
    gas = flow.gas
    checks = []
    # each jump's (left, right) limits, read once for every check below
    limits = {p: _jump_limits(flow, p.theta) for p in flow.jump_points}

    # (1) constant neighborhoods around every shock, width >= delta_L * J
    delta_L = lax_neighborhood_bound(gas)
    width = [_constant_width(flow, p) for p in flow.pieces]
    margins = [
        min(width[k - 1], width[(k + 1) % len(width)]) - delta_L * _jump_norm(gas, *limits[p])
        for k, p in enumerate(flow.pieces)
        if isinstance(p, ShockPoint)
    ]
    checks.append(("shock neighborhoods", not any(m < 0.0 for m in margins), min(margins, default=0.0)))

    sectors = tuple(sector_decompose(flow))

    # split each sector at theta_bar into its L>0 and L<0 parts
    def region(sec, positive):
        if sec.direction is Orientation.FORWARD:
            return (sec.theta_start, sec.theta_bar) if positive else (
                sec.theta_bar, sec.theta_end
            )
        return (sec.theta_bar, sec.theta_end) if positive else (
            sec.theta_start, sec.theta_bar
        )

    # (2) no two compression waves without a shock between (L<0 side)
    ok2 = True
    detail2 = ""
    for sec in sectors:
        a, b = region(sec, positive=False)
        seen_wave = False
        for _, p, shift in _pieces_in(flow, a, b):
            if isinstance(p, ShockPoint):
                seen_wave = False
            elif isinstance(p, PMPiece):
                try:
                    kind = classify_pm(p.wave, sec.theta_bar - shift, tol=STRUCTURE_TOL)
                except ValueError as e:
                    ok2 = False
                    detail2 = str(e)
                    continue
                if kind is WaveKind.COMPRESSION:
                    if seen_wave:
                        ok2 = False
                        detail2 = "two compression waves share a continuous stretch"
                    seen_wave = True
    checks.append(("single compression per stretch", ok2, detail2))

    # (3) the L>0 part realizes one of the five admitted shapes: constant,
    # one shock (normal at the turn or not), one expansion (to the turn or not)
    ok3 = True
    detail3 = ""
    for sec in sectors:
        a, b = region(sec, positive=True)
        feats = [
            (p, shift)
            for _, p, shift in _pieces_in(flow, a, b)
            if isinstance(p, (ShockPoint, PMPiece))
        ]
        admitted = len(feats) <= 1
        if feats and admitted and isinstance(feats[0][0], PMPiece):
            p, shift = feats[0]
            try:
                kind = classify_pm(p.wave, sec.theta_bar - shift, tol=STRUCTURE_TOL)
            except ValueError:
                kind = None
            admitted = kind is WaveKind.EXPANSION
        if not admitted:
            ok3 = False
            detail3 = "inflow region fails the five-case classification"
    checks.append(("inflow region shape", ok3, detail3))

    # (4) forward/backward shock separation
    floor = shock_separation_floor(gas)
    fwd = [p.theta for p in flow.shock_points if p.orientation is Orientation.FORWARD]
    bwd = [p.theta for p in flow.shock_points if p.orientation is Orientation.BACKWARD]
    sep_margin = None
    ok4 = True
    for tf in fwd:
        for tb in bwd:
            d = abs(wrap_signed(tf - tb))
            m = d - floor
            if sep_margin is None or m < sep_margin:
                sep_margin = m
            if m < 0.0:
                ok4 = False
    checks.append(("opposite shock separation", ok4, sep_margin if sep_margin is not None else float("inf")))

    # (5) every jump judged once; the shocks' rows make this check
    jumps = tuple(_judge(gas, p, *limits[p]) for p in flow.shock_points + flow.contact_points)
    bad = [(t, detail) for t, kind, ok, detail in jumps if kind == "shock" and not ok]
    checks.append(("shock admissibility", not bad, "shock at %.6g fails: %s" % bad[-1] if bad else ""))

    # (6) turning bookkeeping per sector
    ok6 = True
    worst6 = 0.0
    for sec in sectors:
        T = _piece_turning(flow, sec.theta_start, sec.theta_end, limits)
        expect = (sec.theta_end - sec.theta_start) - pi
        gap = abs(T - expect)
        worst6 = max(worst6, gap)
        if gap > STRUCTURE_TOL:
            ok6 = False
    checks.append(("sector turning", ok6, worst6))

    return StructureReport(checks=tuple(checks), sectors=sectors, jumps=jumps)


class AuditReport(
    namedtuple(
        "AuditReport",
        "weak_residual_max entropy_min entropy_violations smooth_residual_max"
        " admissibility structure sector_count",
    )
):
    """Aggregated verification results for one flow.

    Residual maxima are scale-normalized (per interval, per component), so
    the tolerances mean the same thing for flows of any magnitude.
    structure is the StructureReport.
    """

    __slots__ = ()

    @property
    def ok(self):
        return (
            all(x <= WEAK_TOL for x in self.weak_residual_max)
            and not self.entropy_violations
            and all(x <= SMOOTH_TOL for x in self.smooth_residual_max)
            and all(ok for _, _, ok, _ in self.admissibility)
            and self.structure.ok
            and self.sector_count <= 3
        )

    @property
    def verdict(self):
        return "pass" if self.ok else "fail"


def _audit_intervals(flow):
    """Covering family: piece interiors plus midpoint-to-midpoint spans.

    Consecutive midpoints straddle exactly one piece boundary each, so
    every jump gets an interval that crosses it and nothing else; the
    wrap-around pair crosses the seam.
    """
    pieces = flow.interval_pieces
    mids = [0.5 * (p.theta_start + p.theta_end) for p in pieces]
    intervals = []
    for p in pieces:
        w = p.theta_end - p.theta_start
        intervals.append((p.theta_start + 0.05 * w, p.theta_end - 0.05 * w))
    for a, b in zip(mids, mids[1:]):
        intervals.append((a, b))
    intervals.append((mids[-1], mids[0] + TWO_PI))
    intervals.append((flow.anchor_theta, flow.anchor_theta + TWO_PI))
    return intervals


def full_audit(flow):
    """Run every check on the flow and aggregate a verdict."""
    intervals = _audit_intervals(flow)
    # a NaN residual or production fails the verdict itself, so numpy's
    # floating-point warnings (which name source paths) stay off stderr
    with np.errstate(all="ignore"):
        weak, production = scaled_residuals(flow, intervals)
        smooth = smooth_residual(flow)
    violations = [
        (interval, prod)
        for interval, prod in zip(intervals, production.tolist())
        if not prod >= -ENTROPY_TOL
    ]

    structure = validate_structure(flow)
    return AuditReport(
        weak_residual_max=tuple(weak.max(axis=0).tolist()),
        entropy_min=float(production.min()),
        entropy_violations=tuple(violations),
        smooth_residual_max=smooth,
        admissibility=structure.jumps,
        structure=structure,
        sector_count=len(structure.sectors),
    )
