"""Sonic-branch smooth waves: N = +-c with the state sliding on one isentrope.

The wave is governed by the reduced two-equation system in (rho, L),

    forward  (N = +c):  rho' = 2 rho L / ((gamma+1) c),   L' = -c
    backward (N = -c):  rho' = -2 rho L / ((gamma+1) c),  L' = +c

with c = c(rho) on the isentrope through the starting state. N never
appears as an unknown: it is slaved to +-c(rho), which keeps the sonic
and isentropic invariants exact at every sample by construction. So the
start must be sonic to |N -+ c| <= gas.MATCH_TOL c, a jump the audit admits.

One private rhs evaluates this system for the RK4 loop and
pm_state_derivative: _sonic_rhs(sign, s_ref, gamma) folds a wave's
constants once and returns rhs(rho, L). It raises ValueError when the
density is not positive: a fan marched that far has reached vacuum
before its end angle.

Integration is fixed-step RK4 with cubic Hermite dense output (the rhs is
cheap, so sample derivatives are stored alongside the samples).

The system also has a closed form, the centered Prandtl-Meyer fan
(Courant & Friedrichs, Supersonic Flow and Shock Waves, 1948): with
k^2 = (gamma-1)/(gamma+1) and R^2 = L0^2 + c0^2/k^2,

    L = R sin(phi),  c = k R cos(phi),  phi = phi0 -+ k (theta - theta0)

(upper sign forward). fan_end gives a wave's end state from it on plain
floats.
"""

import enum
from bisect import bisect_right
from collections import namedtuple
from math import atan2, ceil, cos, hypot, inf, pi, sin, sqrt

from .gas import MATCH_TOL, PrimitiveState, require_in_phase_space
from .polar import from_polar, to_polar
from .shock import brentq

_END_CROSSING_TOL = 1e-9  # an L zero within this (1 + span) of the end is the end


class WaveKind(enum.Enum):
    EXPANSION = "expansion"
    COMPRESSION = "compression"


def _sonic_rhs(sign, s_ref, gamma):
    """rhs(rho, L): (d rho / d theta, d L / d theta) on the isentrope p = s_ref rho^gamma.

    A wave's constants are folded once. Each is a subexpression that
    sign * 2.0 * rho * L / ((gamma + 1.0) * c), -sign * c with
    c = sqrt(gamma * s_ref * rho ** (gamma - 1.0)) evaluates first, so
    every value is the same float.
    """
    gamma_s, gm1, gp1 = gamma * s_ref, gamma - 1.0, gamma + 1.0
    two_sign, minus_sign = sign * 2.0, -sign

    def rhs(rho, L):
        if not rho > 0.0:
            raise ValueError("wave reaches vacuum before its end angle")
        c = sqrt(gamma_s * rho ** gm1)
        return two_sign * rho * L / (gp1 * c), minus_sign * c

    return rhs


class PMWave(
    namedtuple("PMWave", "orientation theta_start theta_end thetas rhos Ls drhos dLs s_ref gamma")
):
    """A sampled sonic wave on [theta_start, theta_end].

    thetas/rhos/Ls hold the RK4 samples, drhos/dLs the rhs values there
    (for Hermite evaluation). s_ref is the isentrope constant p / rho^gamma,
    identical at all samples.
    """

    __slots__ = ()

    @property
    def samples(self):
        """Ordered (theta, PrimitiveState) pairs at the integration nodes."""
        return tuple((t, self.node_state(i)) for i, t in enumerate(self.thetas))

    def node_state(self, i):
        """Primitive state at sample i, read from the stored node values."""
        return _sonic_state(self, self.thetas[i], self.rhos[i], self.Ls[i])

    def end_state(self):
        return self.node_state(-1)

    def reduced_at(self, theta):
        """Hermite-interpolated (rho, L) at an interior angle."""
        ts = self.thetas
        if not (ts[0] - 1e-12 <= theta <= ts[-1] + 1e-12):
            raise ValueError("angle outside the wave interval")
        i = min(max(bisect_right(ts, theta) - 1, 0), len(ts) - 2)
        return _hermite(ts, i, theta, ((self.rhos, self.drhos), (self.Ls, self.dLs)))


def _hermite(ts, i, theta, series):
    """Cubic Hermite value of each (samples, slopes) pair on [ts[i], ts[i + 1]].

    Takes one angle and an int i over tuples, or arrays throughout.
    """
    h = ts[i + 1] - ts[i]
    x = (theta - ts[i]) / h
    h00 = (1.0 + 2.0 * x) * (1.0 - x) ** 2
    h10 = x * (1.0 - x) ** 2
    h01 = x * x * (3.0 - 2.0 * x)
    h11 = x * x * (x - 1.0)
    return tuple(
        h00 * ys[i] + h10 * (ds[i] * h) + h01 * ys[i + 1] + h11 * (ds[i + 1] * h)
        for ys, ds in series
    )


def _sonic_state(wave, theta, rho, L):
    c = sqrt(wave.gamma * wave.s_ref * rho ** (wave.gamma - 1.0))
    u, v = from_polar(wave.orientation.sign * c, L, theta)
    return PrimitiveState(rho=rho, u=u, v=v, p=wave.s_ref * rho ** wave.gamma)


def pm_wave_state(wave, theta):
    """Primitive state of the wave at an angle (exact at sample nodes)."""
    return _sonic_state(wave, theta, *wave.reduced_at(theta))


def pm_wave_arrays(wave, thetas):
    """(rho, u, v, p) arrays of the wave at angles inside its interval.

    Elementwise the same cubic Hermite interpolant and sonic state as
    pm_wave_state, one array operation per term.
    """
    import numpy as np

    ts = np.asarray(wave.thetas)
    t = np.asarray(thetas, dtype=float)
    i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    series = (wave.rhos, wave.drhos), (wave.Ls, wave.dLs)
    rho, L = _hermite(ts, i, t, [(np.asarray(y), np.asarray(d)) for y, d in series])
    N = wave.orientation.sign * np.sqrt(wave.gamma * wave.s_ref * rho ** (wave.gamma - 1.0))
    st, ct = np.sin(t), np.cos(t)
    return rho, N * st + L * ct, -N * ct + L * st, wave.s_ref * rho ** wave.gamma


def _wave_start(rho, u, v, p, theta_start, theta_end, orient, gas):
    """Checks on a wave's span and its start (sonic to MATCH_TOL c).

    Returns (L0, c0, span): the start's tangential velocity and sound
    speed, and the span. The one span check of every wave, the flow
    march's too.
    """
    span = theta_end - theta_start
    if not span > 0.0:
        raise ValueError("wave needs a nonempty interval")

    N0, L0 = to_polar(u, v, theta_start)
    c0 = sqrt(gas.gamma * p / rho)
    if abs(N0 - orient.sign * c0) > MATCH_TOL * c0:
        raise ValueError("starting state is not sonic for this orientation")
    return L0, c0, span


def _isentrope_constant(rho, p, gamma):
    """p / rho^gamma of a wave's start; the one check that it is finite and positive."""
    try:
        s_ref = p / rho ** gamma
    except ArithmeticError:  # rho^gamma overflows, or underflows to zero
        s_ref = inf
    if not 0.0 < s_ref < inf:
        raise ValueError("starting state has no finite positive p / rho^gamma")
    return s_ref


def integrate_pm(start, theta_start, theta_end, orient, gas, steps=None):
    """Integrate a sonic wave from a starting state to a target angle.

    start must be sonic at theta_start for the orientation, inside phase
    space, and have a finite positive p / rho^gamma. steps, at least 1,
    defaults to 64 per radian of span. An interior sign change of L is an error, since a
    wave of one kind cannot continue through the tangential-velocity zero,
    and so is a wave that reaches vacuum before its end angle.
    """
    L0, _, span = _wave_start(*start, theta_start, theta_end, orient, gas)
    require_in_phase_space(*start, gas, "starting state")
    gamma = gas.gamma
    s_ref = _isentrope_constant(start.rho, start.p, gamma)
    rhs = _sonic_rhs(orient.sign, s_ref, gamma)

    if steps is None:
        steps = max(4, ceil(64.0 * span))
    elif not steps >= 1:
        raise ValueError("wave needs at least one step")
    h = span / steps
    half_h, sixth_h = 0.5 * h, h / 6.0

    rho, L = start.rho, L0
    r1, l1 = rhs(rho, L)
    thetas, rhos, Ls, drhos, dLs = [theta_start], [rho], [L], [r1], [l1]
    for k in range(steps):
        # (r1, l1) is the slope stored at the node
        r2, l2 = rhs(rho + half_h * r1, L + half_h * l1)
        r3, l3 = rhs(rho + half_h * r2, L + half_h * l2)
        r4, l4 = rhs(rho + h * r3, L + h * l3)
        rho += sixth_h * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
        L += sixth_h * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        thetas.append(theta_start + (k + 1) * h)
        rhos.append(rho)
        Ls.append(L)
        r1, l1 = rhs(rho, L)
        drhos.append(r1)
        dLs.append(l1)

    wave = PMWave(
        orientation=orient,
        theta_start=theta_start,
        theta_end=theta_end,
        thetas=tuple(thetas),
        rhos=tuple(rhos),
        Ls=tuple(Ls),
        drhos=tuple(drhos),
        dLs=tuple(dLs),
        s_ref=s_ref,
        gamma=gamma,
    )

    # the first zero of L past the start sample, on the dense output
    for i in range(len(thetas) - 1):
        if (Ls[i] == 0.0 and i > 0) or Ls[i] * Ls[i + 1] < 0.0:
            crossing = brentq(
                lambda t: wave.reduced_at(t)[1], thetas[i], thetas[i + 1], xtol=1e-15
            )
            if abs(crossing - theta_end) > _END_CROSSING_TOL * (1.0 + span):
                raise ValueError("tangential velocity changes sign inside the wave")
            break

    n = len(thetas)
    for i in (0, n // 2, n - 1):
        require_in_phase_space(*wave.node_state(i), gas, "wave")
    return wave


def fan_end(rho, u, v, p, theta_start, theta_end, orient, gas):
    """End (rho, u, v, p) at theta_end of the wave integrate_pm marches, in closed form.

    Makes integrate_pm's checks but the start's phase check, which is the
    caller's: a sonic start, a finite positive p / rho^gamma, no vacuum
    (|phi| reaching pi/2), no zero of L before theta_end, and an end state
    inside phase space. |phi| is monotone along the wave, and so are
    density, pressure, energy and speed, so the wave stays inside the box
    if its two ends do. Plain floats, no array code.
    """
    L0, c0, span = _wave_start(rho, u, v, p, theta_start, theta_end, orient, gas)
    gamma = gas.gamma
    _isentrope_constant(rho, p, gamma)
    sign = orient.sign
    k = sqrt((gamma - 1.0) / (gamma + 1.0))
    phi0 = atan2(L0, c0 / k)
    phi = phi0 - sign * k * span
    if not abs(phi) < 0.5 * pi:
        raise ValueError("wave reaches vacuum before its end angle")
    if phi0 * phi < 0.0:
        crossing = theta_start + phi0 / (sign * k)
        if abs(crossing - theta_end) > _END_CROSSING_TOL * (1.0 + span):
            raise ValueError("tangential velocity changes sign inside the wave")
    R = hypot(L0, c0 / k)
    c = k * R * cos(phi)
    ratio = (c / c0) ** (2.0 / (gamma - 1.0))  # rho / rho0 on the isentrope
    end = (rho * ratio, *from_polar(sign * c, R * sin(phi), theta_end), p * ratio ** gamma)
    require_in_phase_space(*end, gas, "wave")
    return end


def classify_pm(wave, theta_bar, tol=1e-9):
    """Expansion or compression, judged by interval position and L sign.

    Forward: expansion sits at or below the tangential zero with L >= 0,
    compression at or above it with L <= 0. Backward waves mirror this.
    A wave straddling theta_bar with both L signs present is rejected.
    """
    lo, hi = wave.theta_start, wave.theta_end
    scale = max(1.0, max(abs(x) for x in wave.Ls))
    has_pos = any(L > tol * scale for L in wave.Ls)
    has_neg = any(L < -tol * scale for L in wave.Ls)
    if has_pos and has_neg:
        raise ValueError("wave straddles the tangential-velocity zero")
    forward = wave.orientation.sign > 0
    if not has_neg and (hi <= theta_bar + tol if forward else lo >= theta_bar - tol):
        return WaveKind.EXPANSION
    if not has_pos and (lo >= theta_bar - tol if forward else hi <= theta_bar + tol):
        return WaveKind.COMPRESSION
    raise ValueError("wave position and tangential sign are inconsistent")


def pm_state_derivative(wave, theta, gas):
    """Conserved state and its exact theta-derivative on the wave.

    Used to confirm that U_theta lies in the kernel of the frame Jacobian.
    Returns (U, dU/dtheta) as 4-tuples.
    """
    rho, L = wave.reduced_at(theta)
    gamma = wave.gamma
    sign = wave.orientation.sign
    drho, dL = _sonic_rhs(sign, wave.s_ref, gamma)(rho, L)
    c = -sign * dL
    N = sign * c
    dc = 0.5 * (gamma - 1.0) * c / rho * drho
    dN = sign * dc

    st, ct = sin(theta), cos(theta)
    u = N * st + L * ct
    v = -N * ct + L * st
    du = dN * st + N * ct + dL * ct - L * st
    dv = -dN * ct + N * st + dL * st + L * ct

    p = wave.s_ref * rho ** gamma
    dp = c * c * drho
    E = p / (gamma - 1.0) + 0.5 * rho * (u * u + v * v)
    dE = dp / (gamma - 1.0) + 0.5 * drho * (u * u + v * v) + rho * (u * du + v * dv)

    U = (rho, rho * u, rho * v, E)
    dU = (drho, drho * u + rho * du, drho * v + rho * dv, dE)
    return U, dU
