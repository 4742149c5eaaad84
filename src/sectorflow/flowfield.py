"""Composition of wave pieces into a closed flow on the circle of directions.

A flow is described by one anchored constant state plus a circular list of
events (shocks, contacts, smooth waves). The builder marches upward in
angle from the anchor, resolving each event from the state it arrives
with:

  * a shock is placed either at a declared angle (its strength follows
    from the normal Mach number there), at the angle where a declared
    strength fits, or at the angle where the strength balances the
    pressure back to the anchor value ("balance" mode, which must be the
    last pressure-changing event);
  * a contact sits at the next zero of N and declares the density and
    tangential velocity on its far side, carrying pressure across;
  * a smooth wave starts where the incoming constant meets the sonic
    condition N = +-c and runs to a declared end angle.

No jump the march lays by accident exceeds gas.MATCH_TOL, under the
audit's thresholds: a wave's start, declared or not, is sonic to MATCH_TOL
c, and a shock's marching side and the closed seam match to it.
Closure around the circle is generally met by shooting on one declared
scalar (an angle or a strength) against the flow-angle mismatch at the
seam. The march carries its state as (rho, u, v, p) floats, and only the
closing march builds piece objects: the scan and the root finder read the
seam state alone. The built flow is immutable; evaluation is
right-continuous. Nothing here needs arrays: the sector and
bounded-variation decompositions read the flow through evaluate.
"""

from bisect import bisect_right
from collections import Counter, namedtuple
from functools import cached_property
from itertools import product
from math import asin, atan2, ceil, hypot, isfinite, pi, sqrt

from .gas import (
    MATCH_TOL, NO_JUMP_TOL, PrimitiveState, primitive_to_conserved, relative_gap,
    require_in_phase_space,
)
from .polar import PolarState, TWO_PI, from_polar, to_polar, wrap_angle, wrap_signed
from .pmwave import PMWave, fan_end, integrate_pm, pm_wave_state
from .shock import (
    Orientation,
    brentq,
    downstream_normal_mach,
    shock_from_strength,
    shock_sides,
    strength_from_normal_mach,
    strength_ratios,
)

# Tolerances of the march and of closure shooting (its accidental jumps are
# gas.MATCH_TOL's). Within _ANGLE_MARGIN an event reaches the seam, a wave
# start the march's angle, and the next angle with a given N the current one.
_ANGLE_MARGIN = 1e-12
# The closure scan takes a wave's end state from the closed form only when
# the RK4 march it stands for steps at most _EXACT_MAX_STEP rad. The two seam
# mismatches then differ by at most about 5.5e-3 h^4, so 5.2e-9 (measured on
# two_sector at gamma 1.1-1.67, brackets up to 0.41-2.0, anchor speed
# x0.96-1.04 and steps 1/4096-1/2 rad). A scan mismatch under
# _SCAN_RECHECK, far above that, is marched again with RK4 before its sign
# is used.
_EXACT_MAX_STEP = 1.0 / 32.0
_SCAN_RECHECK = 1e-6
_JUMP_EPS = 1e-10  # how far from a jump jump_limits reads its sides


class ClosureError(Exception):
    """The marched state fails to meet the anchor after a full turn."""


class MarchError(ValueError):
    """A march's failure at one piece; reason is str() without its measured values."""

    def __init__(self, message, reason=None):
        super().__init__(message)
        self.reason = message if reason is None else reason


# --------------------------------------------------------------- pieces


# Records are immutable named tuples (see gas); a constant piece's state is
# a PrimitiveState, and a wave piece is the PMWave itself.


class ConstantPiece(namedtuple("ConstantPiece", "theta_start theta_end state")):
    __slots__ = ()

    def __new__(cls, theta_start, theta_end, state):
        if not theta_end > theta_start:
            raise ValueError("constant piece needs a nonempty interval")
        return tuple.__new__(cls, (theta_start, theta_end, state))

    _make = classmethod(lambda cls, fields: cls(*fields))


ShockPoint = namedtuple("ShockPoint", "theta orientation")
ContactPoint = namedtuple("ContactPoint", "theta")


class FlowField(namedtuple("FlowField", "gas anchor_theta pieces")):
    """Immutable piecewise flow covering one full turn from the anchor.

    pieces holds interval pieces (ConstantPiece, PMWave) interleaved with
    the point pieces (ShockPoint, ContactPoint) sitting at their shared
    boundaries, ordered by angle over [anchor_theta, anchor_theta + 2 pi].
    A point piece holds its angle (and a shock its orientation) only; its
    sides are the flow's limits there (jump_limits), so each state is
    stored once, in the interval pieces. The cached views below live in
    the instance dict (no __slots__).
    """

    @cached_property
    def interval_pieces(self):
        return tuple(
            p for p in self.pieces if isinstance(p, (ConstantPiece, PMWave))
        )

    @cached_property
    def _starts(self):
        return tuple(p.theta_start for p in self.interval_pieces)

    @cached_property
    def jump_points(self):
        return tuple(
            p for p in self.pieces if isinstance(p, (ShockPoint, ContactPoint))
        )

    @cached_property
    def shock_points(self):
        return tuple(p for p in self.pieces if isinstance(p, ShockPoint))

    @cached_property
    def contact_points(self):
        return tuple(p for p in self.pieces if isinstance(p, ContactPoint))

    def local_angle(self, theta):
        """Map any angle into [anchor_theta, anchor_theta + 2 pi)."""
        return self.anchor_theta + wrap_angle(theta - self.anchor_theta)


def evaluate(flow, theta):
    """Primitive state at an angle, right-continuous at every jump."""
    t = flow.local_angle(theta)
    piece = flow.interval_pieces[max(bisect_right(flow._starts, t) - 1, 0)]
    if isinstance(piece, ConstantPiece):
        return piece.state
    return pm_wave_state(piece, min(t, piece.theta_end))


def jump_limits(flow, theta):
    """The flow's (left, right) limits at a jump: evaluate _JUMP_EPS below and above it."""
    return evaluate(flow, theta - _JUMP_EPS), evaluate(flow, theta + _JUMP_EPS)


def flow_angle_of(state):
    return atan2(state.v, state.u)


# ------------------------------------------------------ flow description


class ShockEvent(namedtuple("ShockEvent", "orientation theta z balance L_sign")):
    """One shock, located by exactly one of: angle, strength, or balance.

    With `theta` the strength follows from the marching state's normal
    Mach number there. With `z` the angle is solved for. With
    balance=True the strength is chosen so the pressure returns to the
    anchor value and the angle is solved for that strength. When the
    angle is solved for, L_sign picks which side of the sector turn the
    shock sits on (default: the nearest crossing).
    """

    __slots__ = ()

    def __new__(cls, orientation, theta=None, z=None, balance=False, L_sign=None):
        if (theta is not None) + (z is not None) + bool(balance) != 1:
            raise ValueError("shock event needs exactly one of theta, z, balance")
        return tuple.__new__(cls, (orientation, theta, z, balance, L_sign))

    _make = classmethod(lambda cls, fields: cls(*fields))


ContactEvent = namedtuple("ContactEvent", "rho L")

# a wave's orientation, end angle, and optionally its start and RK4 steps
PMEvent = namedtuple(
    "PMEvent", "orientation theta_end theta_start steps", defaults=(None, None)
)


class Shooting(namedtuple("Shooting", "event_index field bracket")):
    """One scalar degree of freedom adjusted to close the flow.

    event_index/field name the declared value being varied (a shock
    angle or strength, or a wave end angle); bracket bounds the search.
    """

    __slots__ = ()


# the anchor's angle and PrimitiveState, the events, and the Shooting or None
FlowDescription = namedtuple(
    "FlowDescription", "anchor_theta anchor_state events shooting", defaults=(None,)
)


# -------------------------------------------------------------- marching


def _next_angle_with_normal(u, v, target_N, above, L_sign=None):
    """Smallest angle > above where the constant velocity (u, v) has N = target.

    Per turn a constant crosses any reachable N twice, once with L >= 0
    and once with L <= 0; L_sign = +-1 restricts to one branch.
    """
    q = hypot(u, v)
    phi = atan2(v, u)
    if abs(target_N) > q:
        raise MarchError(
            "constant state (speed %.6g) never reaches the required "
            "normal velocity %.6g" % (q, target_N),
            "constant state ... never reaches the required normal velocity",
        )
    s = asin(max(-1.0, min(1.0, target_N / q)))
    bases = []
    if L_sign is None or L_sign > 0:
        bases.append(phi + s)
    if L_sign is None or L_sign < 0:
        bases.append(phi + pi - s)
    best = None
    for base in bases:
        cand = base + TWO_PI * ceil((above + _ANGLE_MARGIN - base) / TWO_PI)
        if best is None or cand < best:
            best = cand
    return best


def _rk4_wave(state, a, b, orient, gas, steps):
    """The RK4 wave from a to b and its end state."""
    wave = integrate_pm(PrimitiveState(*state), a, b, orient, gas, steps=steps)
    return wave, wave.end_state()


def _exact_wave(state, a, b, orient, gas, steps):
    """No wave, and the end state: a scan march keeps only the wave's end.

    The end state is the closed form's where RK4 would step at most
    _EXACT_MAX_STEP (always, for the default steps), and RK4's otherwise.
    """
    if steps is not None and b - a > _EXACT_MAX_STEP * steps:
        return None, _rk4_wave(state, a, b, orient, gas, steps)[1]
    return None, fan_end(*state, a, b, orient, gas)


def _march(gas, desc, march_wave=_rk4_wave, keep=False):
    """Resolve the events from the anchor on a (rho, u, v, p) tuple; no closure check here.

    Returns (pieces, final): the flow's pieces, built only with keep (the
    closing march), else None, and the seam state. Every march makes the
    same checks on the same floats, each where its piece is laid, so the
    pieces tile the circle and meet end to end. march_wave(state, a, b,
    orientation, gas, steps) gives a wave (None to leave it out) and its end
    state. Phase checks: the anchor's is build_flow's, a shock's sides
    shock_sides', a wave's end the wave march's, so a wave's start needs
    none; only a contact's far side is checked here. A ValueError while an
    event is resolved leaves as a MarchError that names the event's piece.
    """
    theta0 = desc.anchor_theta
    state = desc.anchor_state
    pieces = [] if keep else None
    cur_start = theta0
    horizon = theta0 + TWO_PI
    g = gas.gamma

    def hold(theta_end):
        # the constant from cur_start; unkept, its interval is checked here
        if keep:
            pieces.append(ConstantPiece(cur_start, theta_end, PrimitiveState(*state)))
        elif not theta_end > cur_start:
            raise ValueError("constant piece needs a nonempty interval")

    for idx, ev in enumerate(desc.events):
        rho, u, v, p = state
        try:
            if isinstance(ev, ShockEvent):
                c_cur = sqrt(g * p / rho)
                sign = ev.orientation.sign
                # the marching state is the shock's left side: the back of a
                # forward shock, the front of a backward one
                back = ev.orientation is Orientation.FORWARD
                if ev.theta is not None:
                    theta_s = ev.theta
                    if not theta_s > cur_start:
                        raise ValueError("event angle does not advance the march")
                    N_cur, L_cur = to_polar(u, v, theta_s)
                    z = strength_from_normal_mach(
                        sign * N_cur / c_cur, g, "back" if back else "front"
                    )
                else:
                    if ev.balance:
                        # the new state's pressure returns to the anchor value
                        p_left, p_right = p, desc.anchor_state.p
                        z = (p_left / p_right if back else p_right / p_left) - 1.0
                        if not z > 0.0:
                            raise MarchError(
                                "balance shock would need nonpositive strength %.6g" % z,
                                "balance shock would need nonpositive strength",
                            )
                    else:
                        z = ev.z
                        if not z > 0.0:
                            raise ValueError("declared shock strength must be positive")
                    # normal Mach number of the marching side at strength z
                    if back:
                        mach_n = downstream_normal_mach(z, g)
                    else:
                        mach_n = sqrt(strength_ratios(z, g)[0])
                    target = sign * c_cur * mach_n
                    theta_s = _next_angle_with_normal(u, v, target, cur_start, ev.L_sign)
                    _, L_cur = to_polar(u, v, theta_s)

                if theta_s >= horizon - _ANGLE_MARGIN:
                    raise ValueError("event angle passes the closure seam")

                # the shock stands on its front side; a forward shock's front
                # follows from the marching back side by the closed forms
                rho_f, p_f = rho, p
                if back:
                    rp, rm = strength_ratios(z, g)
                    rho_f, p_f = rho * rm / rp, p / (1.0 + z)
                if keep:
                    # a kept shock goes through shock_from_strength, the name
                    # bench/workloads.py counts kept shocks by; its sides are
                    # the floats shock_sides gives every other march
                    upstream = PolarState(theta_s, 0.0, L_cur, rho_f, p_f)
                    sol = shock_from_strength(upstream, z, ev.orientation, gas)
                    left, right = sol.left_state().to_primitive(), sol.right_state().to_primitive()
                else:
                    _, _, front, behind = shock_sides(
                        theta_s, L_cur, rho_f, p_f, z, ev.orientation, gas
                    )
                    left, right = (behind, front) if back else (front, behind)
                if relative_gap(left, state) > MATCH_TOL:
                    raise ValueError("shock does not match the marching state")

                hold(theta_s)
                if keep:
                    pieces.append(ShockPoint(theta_s, ev.orientation))
                state = right
                cur_start = theta_s

            elif isinstance(ev, ContactEvent):
                theta_c = _next_angle_with_normal(u, v, 0.0, cur_start)
                if theta_c >= horizon - _ANGLE_MARGIN:
                    raise ValueError("contact angle passes the closure seam")
                _, L_left = to_polar(u, v, theta_c)
                if abs(ev.L) <= 0.0 or not ev.rho > 0.0:
                    raise ValueError("contact needs positive density and moving gas")
                if relative_gap((rho, L_left), (ev.rho, ev.L)) <= NO_JUMP_TOL:
                    raise ValueError(
                        "a trivial contact must jump in density or tangential velocity"
                    )
                new = (ev.rho, *from_polar(0.0, ev.L, theta_c), p)
                require_in_phase_space(*new, gas, "post-contact state")
                hold(theta_c)
                if keep:
                    pieces.append(ContactPoint(theta_c))
                state = new
                cur_start = theta_c

            elif isinstance(ev, PMEvent):
                sign = ev.orientation.sign
                if ev.theta_start is not None:
                    a = ev.theta_start
                    if a < cur_start - _ANGLE_MARGIN:
                        raise ValueError("wave start angle precedes the march")
                else:
                    c_cur = sqrt(g * p / rho)
                    N_now, _ = to_polar(u, v, cur_start)
                    if abs(N_now - sign * c_cur) <= MATCH_TOL * c_cur:
                        a = cur_start
                    else:
                        a = _next_angle_with_normal(u, v, sign * c_cur, cur_start)
                        if not ev.theta_end > a:
                            raise MarchError(
                                "wave's sonic start %.6g lies past its end angle %.6g"
                                % (a, ev.theta_end), "wave's sonic start lies past its end angle"
                            )
                if ev.theta_end >= horizon - _ANGLE_MARGIN:
                    raise ValueError("wave end passes the closure seam")
                # the wave march checks the span and that the state is sonic at a
                wave, end = march_wave(state, a, ev.theta_end, ev.orientation, gas, ev.steps)
                if a > cur_start + _ANGLE_MARGIN:
                    hold(a)
                if keep:
                    pieces.append(wave)
                state = end
                cur_start = ev.theta_end

            else:
                raise ValueError("unknown event type %r" % (ev,))
        except ValueError as e:
            raise MarchError(
                "piece %d: %s" % (idx, e), "piece %d: %s" % (idx, getattr(e, "reason", e))
            )

    if cur_start >= horizon - _ANGLE_MARGIN:
        raise MarchError("events fill the whole circle, leaving no closure seam")
    hold(horizon)
    return pieces, state


def _angle_mismatch(desc, final):
    return wrap_signed(atan2(final[2], final[1]) - flow_angle_of(desc.anchor_state))


def _with_param(desc, value):
    sh = desc.shooting
    ev = desc.events[sh.event_index]
    events = list(desc.events)
    events[sh.event_index] = ev._replace(**{sh.field: value})
    return desc._replace(events=tuple(events), shooting=None)


def _shooting_roots(gas, desc):
    """Shooting values to try, in order, each as a call that finds it.

    The bracket is scanned on 65 points with _exact_wave. A point whose
    mismatch is under _SCAN_RECHECK is marched again with RK4. A point
    whose scan march fails is not, and the ClosureError counts that
    failure: both wave models make the same checks, and they fail at the
    same scan points for the same reason (measured on the corpus and
    mutation configs and on two_sector at anchor speeds x0.9-1.1). A
    description without a wave marches the same floats either way, so its
    points are marched once, with RK4. Each sign-change cell of the scan
    is kept only if RK4's mismatch changes sign across it too. Elsewhere
    the two mismatches differ by far less than _SCAN_RECHECK, so the cells
    are those of an RK4-only scan. Grid zeros come first, then each cell
    in order, solved by Brent on the RK4 mismatch. A cell whose ends
    differ by more than pi straddles the +-pi wrap of the mismatch, not a
    root, and is skipped.
    """
    lo, hi = desc.shooting.bracket

    def mismatch(x, march_wave=_rk4_wave):
        _, final = _march(gas, _with_param(desc, x), march_wave)
        return _angle_mismatch(desc, final)

    rk4 = {}  # RK4 mismatch by shooting value, None where the march fails
    failures = {}

    def marched(x, march_wave=_rk4_wave):
        """The mismatch at x, or None with the march's failure recorded."""
        try:
            return mismatch(x, march_wave)
        except MarchError as e:
            failures[x] = e.reason
            return None

    def rk4_at(x):
        if x not in rk4:
            rk4[x] = marched(x)
        return rk4[x]

    has_wave = any(isinstance(ev, PMEvent) for ev in desc.events)

    def scan(x):
        if not has_wave:
            return rk4_at(x)
        f = marched(x, _exact_wave)
        return f if f is None or abs(f) >= _SCAN_RECHECK else rk4_at(x)

    def brent(a, b):
        def f(x):
            return rk4[x] if x in rk4 else mismatch(x)

        return brentq(f, a, b, xtol=1e-13)

    n_scan = 65
    xs = [lo + (hi - lo) * k / (n_scan - 1) for k in range(n_scan)]
    vals = [scan(x) for x in xs]

    roots = [lambda x=x: x for x, fx in zip(xs, vals) if fx == 0.0]
    for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
        if fa is None or fb is None or not fa * fb < 0.0:
            continue
        fa, fb = rk4_at(a), rk4_at(b)
        if fa is None or fb is None or not fa * fb < 0.0 or abs(fa - fb) > pi:
            continue
        roots.append(lambda a=a, b=b: brent(a, b))
    if roots:
        return roots
    detail = ""
    reasons = Counter(failures[x] for x in xs if x in failures)
    if reasons:
        detail = "; undefined at %d of %d scan points: %s" % (
            sum(reasons.values()),
            n_scan,
            ", ".join("%dx %s" % (n, r) for r, n in reasons.most_common()),
        )
    raise ClosureError(
        "flow does not close up around the circle "
        "(no sign change of the seam mismatch inside the shooting bracket%s)" % detail
    )


def build_flow(gas, desc):
    """Build a closed flow from a description, shooting if one is declared.

    The shooting variable is adjusted by scalar root finding on the
    flow-angle mismatch at the seam (the remaining closure components are
    matched structurally by the description: a balance shock for pressure
    and the final contact data for density and tangential velocity). The
    roots are tried in the order _shooting_roots gives them and the first
    that closes is built; when none does, the first one's failure is raised.
    The anchor is checked once, before any march: finite, then inside the
    phase-space box.
    """
    anchor = desc.anchor_state
    for name, x in zip("rho u v p".split(), anchor):
        if not isfinite(x):
            raise ValueError("piece -1: anchor state has a non-finite %s (%r)" % (name, x))
    require_in_phase_space(*anchor, gas, "piece -1: anchor state")
    if desc.shooting is None:
        return _closed_flow(gas, desc, "")
    first = None
    for root in _shooting_roots(gas, desc):
        try:
            return _closed_flow(gas, _with_param(desc, root()), " after shooting")
        except (ValueError, ClosureError) as e:
            first = first or e
    raise first


def _closed_flow(gas, desc, note):
    pieces, final = _march(gas, desc, keep=True)
    gap = relative_gap(final, desc.anchor_state)
    if gap > MATCH_TOL:
        raise ClosureError(
            "flow does not close up around the circle (residual %.3e%s)" % (gap, note)
        )
    # A wave laid at the anchor's angle starts on its sonic first node, whose
    # velocity is |N -+ c| <= MATCH_TOL c <= sqrt(2) MATCH_TOL max(|u|, |v|)
    # off the marched state's: the seam jumps by at most (1 + sqrt(2)) MATCH_TOL.
    return FlowField(gas=gas, anchor_theta=desc.anchor_theta, pieces=tuple(pieces))


# --------------------------------------------------------------- sectors


class Sector(namedtuple("Sector", "theta_start theta_end direction theta_bar")):
    """Interval between consecutive contacts, with its tangential turn.

    direction is the Orientation whose sign N has inside the sector.
    """

    __slots__ = ()


def _L_at(flow, theta):
    s = evaluate(flow, theta)
    return to_polar(s.u, s.v, theta)[1]


def sector_decompose(flow):
    """Split the circle at contacts and classify each sector.

    Also enforces the structural facts the decomposition relies on: a
    consistent normal sign inside each sector, the entry and exit signs
    of L, and the hard cap of three sectors.
    """
    contacts = flow.contact_points
    if contacts:
        boundaries = sorted(p.theta for p in contacts)
    else:
        first = flow.interval_pieces[0]
        if len(flow.interval_pieces) > 1 or not isinstance(first, ConstantPiece):
            raise ValueError("flow without contacts must be a single constant")
        # the two zeros of N, where theta is the flow angle phi or phi + pi
        phi, base = flow_angle_of(first.state), flow.anchor_theta
        boundaries = sorted(base + wrap_angle(x - base) for x in (phi, phi + pi))

    if len(boundaries) > 3:
        raise ValueError("%d contacts violates maximum-sector theorem" % len(boundaries))

    eps = 1e-7
    sectors = []
    for k, a in enumerate(boundaries):
        b = boundaries[(k + 1) % len(boundaries)]
        if b <= a:
            b += TWO_PI
        # N's sign from probes eps inside the ends of each piece in the sector,
        # at most pi/2 apart: a constant's N = |V| sin(theta - phi) has zeros
        # pi apart, and a wave's N = +-c never vanishes
        N = []
        for shift, p in product((0.0, TWO_PI), flow.interval_pieces):
            lo, hi = max(p.theta_start + shift, a), min(p.theta_end + shift, b)
            if hi > lo:
                d = min(eps, 0.5 * (hi - lo))
                n = max(1, ceil((hi - lo - 2.0 * d) / (0.5 * pi)))
                for t in (lo + d + (hi - lo - 2.0 * d) * j / n for j in range(n + 1)):
                    s = evaluate(flow, t)
                    N.append(to_polar(s.u, s.v, t)[0])
        N = [x for x in N if abs(x) > 1e-12]
        if not N:
            raise ValueError("sector with vanishing N throughout")
        sign = 1.0 if N[0] > 0.0 else -1.0
        if any(x * sign < 0.0 for x in N):
            raise ValueError("sector with sign-inconsistent N")
        direction = Orientation.FORWARD if sign > 0 else Orientation.BACKWARD
        # L enters with N's sign and leaves with the other
        if not sign * _L_at(flow, a + eps) > 0.0 > sign * _L_at(flow, b - eps):
            raise ValueError("%s sector tangential signs are wrong" % direction.value)

        # L is monotone and continuous inside the sector, and the signs
        # checked above bracket its zero
        theta_bar = brentq(lambda t: _L_at(flow, t), a + eps, b - eps, xtol=1e-15)
        sectors.append(Sector(a, b, direction, theta_bar))
    return sectors


def shock_separation_floor(gas):
    """Least angular distance between forward and backward shocks.

    N transitions through zero between opposite-facing shocks, and the
    distance from any N-zero to a shock is at least
    c_min rho_min / (2 rho_max speed_max); the pair bound is twice that.
    """
    b = gas.bounds
    return gas.c_min * b.rho_min / (b.rho_max * b.speed_max)


# ------------------------------------------------------------------- SBV


class SBVDecomposition(
    namedtuple(
        "SBVDecomposition",
        "jump_part lipschitz_part total_variation tv_lipschitz lipschitz_constant",
    )
):
    """Split of the flow into a saltus part and a Lipschitz remainder."""

    __slots__ = ()


def conserved_jump(gas, left, right):
    ul, ur = primitive_to_conserved(left, gas), primitive_to_conserved(right, gas)
    return tuple(r - l for l, r in zip(ul, ur))


def bv_decompose(flow, samples=720):
    """Cumulative-jump decomposition U = U_L + U_S sampled on the circle, jumps from limits."""
    jumps = [
        (flow.local_angle(p.theta), conserved_jump(flow.gas, *jump_limits(flow, p.theta)))
        for p in flow.jump_points
    ]
    jumps.sort(key=lambda q: q[0])

    base, g1 = flow.anchor_theta, flow.gas.gamma - 1.0
    ts = [base + TWO_PI * k / samples for k in range(samples + 1)]
    part, last = [], None  # last: the state of the previous row, while no jump passed
    saltus, passed = (0.0,) * 4, 0  # the jumps at or below t, summed in order
    for t in ts:
        while passed < len(jumps) and jumps[passed][0] <= t:
            saltus = tuple(x + d for x, d in zip(saltus, jumps[passed][1]))
            passed, last = passed + 1, None
        state = evaluate(flow, t)
        if state is not last:
            last = state
            (rho, u, v, p), (s0, s1, s2, s3) = state, saltus
            E = p / g1 + 0.5 * rho * (u * u + v * v)
            row = (rho - s0, rho * u - s1, rho * v - s2, E - s3)
        part.append(row)
    step = []
    for row0, row1 in zip(part, part[1:]):
        if row0 is row1:  # one state on both rows: exactly no step
            step.append(0.0)
        else:
            (a0, a1, a2, a3), (b0, b1, b2, b3) = row0, row1
            d0, d1, d2, d3 = b0 - a0, b1 - a1, b2 - a2, b3 - a3
            step.append(sqrt(d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3))

    return SBVDecomposition(
        jump_part=tuple(jumps),
        lipschitz_part=tuple(zip(ts, part)),
        total_variation=sum(sqrt(sum(d * d for d in dU)) for _, dU in jumps),
        tv_lipschitz=sum(step),
        lipschitz_constant=max(h / (t1 - t0) for h, t0, t1 in zip(step, ts, ts[1:])),
    )
