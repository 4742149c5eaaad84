"""Shock algebra: jump conditions, strength parameterization, admissibility.

Shock sides are labeled by the gas path. The front (upstream) side is the
one the gas arrives from, the back (downstream) side the one it leaves to.
For a forward shock (N > 0 on both sides) the gas crosses rays toward
decreasing theta, so the front side is the right limit in theta and the
back side the left limit. A backward shock mirrors this.

Shock strength is z = (p_back - p_front) / p_front > 0. With
    rp = 1 + z (gamma+1) / (2 gamma)
    rm = 1 + z (gamma-1) / (2 gamma)
the closed forms used throughout are, for a forward shock,

    |N_front| = c_front sqrt(rp)
    rho_back  = rho_front rp / rm
    p_back    = p_front (1 + z)
    |N_back|  = c_front^2 rm / |N_front|
    c_back^2  = c_front^2 (1 + z) rm / rp

and identical with all normal velocities negated for a backward shock.
"""

import enum
from collections import namedtuple
from functools import cached_property
from math import acos, asin, atan, atan2, cos, pi, sin, sqrt, tan

from .gas import CONTACT_P_TOL, FLUX_JUMP_TOL, NO_JUMP_TOL, ZERO_N_TOL
from .gas import normal_flux, physical_fluxes, relative_gap, require_in_phase_space
from .polar import PolarState, from_polar, to_polar


class Orientation(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"

    @cached_property
    def sign(self):
        """Sign of N on both sides of a shock with this orientation."""
        return 1.0 if self is Orientation.FORWARD else -1.0


class ShockSolution(namedtuple("ShockSolution", "orientation upstream downstream z")):
    """A resolved shock: its orientation, both polar states and its strength.

    upstream is the front side, downstream the back side (PolarStates); the
    shock's angle is theirs, and its signed mass flux the front's rho * N.
    The audit's classifier builds these from a jump's two limits; a built
    flow keeps no shock solution, only each shock's angle and orientation.
    """

    __slots__ = ()

    def left_state(self):
        """State on the lower-theta side of the jump."""
        if self.orientation is Orientation.FORWARD:
            return self.downstream
        return self.upstream

    def right_state(self):
        """State on the higher-theta side of the jump."""
        if self.orientation is Orientation.FORWARD:
            return self.upstream
        return self.downstream


def strength_ratios(z, gamma):
    """(rp, rm) of the closed forms at strength z: 1 + z (gamma +- 1) / (2 gamma)."""
    return 1.0 + z * (gamma + 1.0) / (2.0 * gamma), 1.0 + z * (gamma - 1.0) / (2.0 * gamma)


def downstream_normal_mach(z, gamma):
    """|N_back| / c_back as a function of shock strength.

    Strictly decreasing in z, from 1 at z = 0 down to sqrt((gamma-1)/(2 gamma)).
    """
    _, rm = strength_ratios(z, gamma)
    return sqrt(rm / (1.0 + z))


def strength_from_normal_mach(mach_n, gamma, side):
    """Invert the normal-Mach/strength relations.

    side "front": mach_n = |N_front|/c_front > 1, solved from
    mach_n^2 = 1 + z (gamma+1)/(2 gamma).
    side "back": mach_n = |N_back|/c_back < 1, solved from
    mach_n^2 = rm / (1+z).
    Raises if the given Mach number is on the wrong side of 1.
    """
    if side == "front":
        if not mach_n > 1.0:
            raise ValueError("front side of a shock must be supersonic normal")
        return (mach_n * mach_n - 1.0) * 2.0 * gamma / (gamma + 1.0)
    if side == "back":
        mu = mach_n * mach_n
        lo = (gamma - 1.0) / (2.0 * gamma)
        if not (lo < mu < 1.0):
            raise ValueError("back side of a shock must be subsonic normal")
        return (1.0 - mu) / (mu - lo)
    raise ValueError("side must be 'front' or 'back'")


def shock_sides(theta, L, rho, p, z, orient, gas):
    """shock_from_strength on the front's floats: (n_front, n_back, front, back).

    front and back are the checked primitive sides as (rho, u, v, p) tuples.
    """
    if not z > 0.0:
        raise ValueError("no jump: shock strength must be positive")
    if z > gas.z_max:
        raise ValueError("shock strength exceeds z_max for the phase space")
    g = gas.gamma
    rp, rm = strength_ratios(z, g)
    c_f = sqrt(g * p / rho)
    n_front = orient.sign * c_f * sqrt(rp)
    rho_b = rho * rp / rm
    p_b = p * (1.0 + z)
    n_back = rho * n_front / rho_b
    front = (rho, *from_polar(n_front, L, theta), p)
    back = (rho_b, *from_polar(n_back, L, theta), p_b)
    require_in_phase_space(*front, gas, "upstream state")
    require_in_phase_space(*back, gas, "downstream state")
    return n_front, n_back, front, back


def shock_from_strength(upstream, z, orient, gas):
    """Construct the shock of strength z standing on the given upstream state.

    upstream supplies the angle, thermodynamics and tangential velocity; its
    normal component is replaced by the unique value a shock of strength z
    admits, c_front sqrt(1 + z (gamma+1)/(2 gamma)) with the orientation sign.
    Both of the solution's primitive sides must lie in the phase-space box.
    """
    theta, L, rho = upstream.theta, upstream.L, upstream.rho
    n_front, n_back, _, back = shock_sides(theta, L, rho, upstream.p, z, orient, gas)
    return ShockSolution(
        orientation=orient,
        upstream=PolarState(theta=theta, N=n_front, L=L, rho=rho, p=upstream.p),
        downstream=PolarState(theta=theta, N=n_back, L=L, rho=back[0], p=back[3]),
        z=z,
    )


def _flux_jump(fluxes_left, fluxes_right, theta):
    st, ct = sin(theta), cos(theta)
    gl, gr = normal_flux(*fluxes_left, st, ct), normal_flux(*fluxes_right, st, ct)
    return tuple(r - l for l, r in zip(gl, gr))


def rh_residual(left, right, theta, gas):
    """Jump of the normal flux gas.normal_flux, right state minus left state.

    All four components vanish exactly when the jump conditions hold at theta.
    """
    return _flux_jump(physical_fluxes(left, gas), physical_fluxes(right, gas), theta)


class DiscontinuityKind(enum.Enum):
    FORWARD_SHOCK = "forward_shock"
    BACKWARD_SHOCK = "backward_shock"
    CONTACT = "contact"
    NOT_A_JUMP = "not_a_jump"
    INADMISSIBLE = "inadmissible"


Classification = namedtuple("Classification", "kind shock reason", defaults=(None, None))


def classify_discontinuity(left, right, theta, gas):
    """Decide what kind of jump, if any, the two states form at theta.

    States within relative distance NO_JUMP_TOL are not a jump. A normal
    velocity counts as zero within ZERO_N_TOL max(|V|, c) of the left state.
    A contact needs both at zero and pressures equal within CONTACT_P_TOL
    max(1, p_left). A shock needs all four jump conditions, each flux jump
    within FLUX_JUMP_TOL of its row's largest flux (at least 1), one N sign
    on both sides and a pressure rise through the gas path; anything else is
    inadmissible with the first violated condition named. The shock's margins
    are check_admissibility's, run by the caller on the returned shock.
    """
    if relative_gap(left, right) <= NO_JUMP_TOL:
        return Classification(DiscontinuityKind.NOT_A_JUMP)

    n_zero = ZERO_N_TOL * max(left.speed, left.sound_speed(gas))
    Nl, Ll = to_polar(left.u, left.v, theta)
    Nr, Lr = to_polar(right.u, right.v, theta)

    if abs(Nl) <= n_zero and abs(Nr) <= n_zero:
        if abs(right.p - left.p) <= CONTACT_P_TOL * max(1.0, left.p):
            return Classification(DiscontinuityKind.CONTACT)
        return Classification(
            DiscontinuityKind.INADMISSIBLE, reason="pressure jumps across a contact"
        )

    fl, fr = physical_fluxes(left, gas), physical_fluxes(right, gas)
    res = _flux_jump(fl, fr, theta)
    for i, name in enumerate(("mass", "x-momentum", "y-momentum", "energy")):
        scale = max(abs(fl[0][i]), abs(fr[0][i]), abs(fl[1][i]), abs(fr[1][i]), 1.0)
        if abs(res[i]) > FLUX_JUMP_TOL * scale:
            return Classification(
                DiscontinuityKind.INADMISSIBLE,
                reason="%s flux jumps across the discontinuity" % name,
            )

    if Nl > n_zero and Nr > n_zero:
        kind, orient = DiscontinuityKind.FORWARD_SHOCK, Orientation.FORWARD
        front, back, n_front, n_back, l_front = right, left, Nr, Nl, Lr
    elif Nl < -n_zero and Nr < -n_zero:
        kind, orient = DiscontinuityKind.BACKWARD_SHOCK, Orientation.BACKWARD
        front, back, n_front, n_back, l_front = left, right, Nl, Nr, Ll
    else:
        return Classification(
            DiscontinuityKind.INADMISSIBLE, reason="normal velocity changes sign"
        )

    z = (back.p - front.p) / front.p
    if not z > 0.0:
        return Classification(
            DiscontinuityKind.INADMISSIBLE, reason="entropy decreases across the jump"
        )
    sol = ShockSolution(
        orientation=orient,
        upstream=PolarState(theta=theta, N=n_front, L=l_front, rho=front.rho, p=front.p),
        downstream=PolarState(theta=theta, N=n_back, L=l_front, rho=back.rho, p=back.p),
        z=z,
    )
    return Classification(kind, shock=sol)


class AdmissibilityReport(namedtuple("AdmissibilityReport", "checks")):
    """Named admissibility conditions with their measured margins.

    Each entry is (name, passed, margin) where the margin is the amount by
    which the inequality holds (positive means satisfied strictly).
    """

    __slots__ = ()

    @property
    def ok(self):
        return all(passed for _, passed, _ in self.checks)

    def first_failure(self):
        for name, passed, _ in self.checks:
            if not passed:
                return name
        return None

    def margin(self, name):
        for n, _, m in self.checks:
            if n == name:
                return m
        raise KeyError(name)


def normal_floor(gas):
    """Lower bound on |N| at any entropy-admissible shock."""
    return gas.c_min * gas.bounds.rho_min / gas.bounds.rho_max


def check_admissibility(sol, gas):
    """Evaluate every admissibility condition of a shock with margins.

    Checks: compressivity (back denser than front), entropy rise through
    the gas path, strict Lax inequalities on both sides, the normal-velocity
    floor, and the strength window (0, z_max].
    """
    up, dn = sol.upstream, sol.downstream
    c_f = up.sound_speed(gas)
    c_b = dn.sound_speed(gas)
    floor = normal_floor(gas)
    s_f = up.p / up.rho ** gas.gamma
    s_b = dn.p / dn.rho ** gas.gamma
    mass_flux = up.rho * up.N
    # mass_flux * (entropy jump in theta) must be <= 0; the jump taken
    # right minus left regardless of orientation
    if sol.orientation is Orientation.FORWARD:
        ds_theta = s_f - s_b
    else:
        ds_theta = s_b - s_f
    checks = (
        ("compressive", dn.rho > up.rho, 1.0 / up.rho - 1.0 / dn.rho),
        ("entropy rises", s_b > s_f, s_b - s_f),
        ("entropy flux sign", mass_flux * ds_theta <= 0.0, -mass_flux * ds_theta),
        ("lax upstream", abs(up.N) > c_f, abs(up.N) - c_f),
        ("lax downstream", 0.0 < abs(dn.N) < c_b, c_b - abs(dn.N)),
        ("normal velocity floor upstream", abs(up.N) >= floor, abs(up.N) - floor),
        ("normal velocity floor downstream", abs(dn.N) >= floor, abs(dn.N) - floor),
        ("strength window", 0.0 < sol.z <= gas.z_max, gas.z_max - sol.z),
        ("same normal sign", up.N * dn.N > 0.0, up.N * dn.N),
    )
    return AdmissibilityReport(checks=checks)


def _turning(r, beta, gamma):
    """Unclamped turning of a shock at angle beta and its slope d(turning)/d(beta).

    With r = 1/M^2, turning = atan(num / den) with num = 2 (sin^2 beta - r)
    cot beta and den = gamma + cos 2 beta + 2 r, the classical relation
    divided through by M^2 so that no M^2 can overflow; num' = 2 cos 2 beta
    + 2 r / sin^2 beta and den' = -2 sin 2 beta give the slope.
    """
    s = sin(beta)
    c2 = cos(2.0 * beta)
    num = 2.0 * (s * s - r) / tan(beta)
    den = gamma + c2 + 2.0 * r
    ratio = num / den
    slope = 2.0 * (c2 + r / (s * s) + ratio * sin(2.0 * beta)) / den
    return atan(ratio), slope / (1.0 + ratio * ratio)


def deflection_angle(mach, shock_angle, gas):
    """Flow turning angle of an oblique shock at the given shock angle.

    alpha = arctan( 2 cot(theta_s) (M^2 sin^2 theta_s - 1)
                    / (M^2 (gamma + cos 2 theta_s) + 2) )
    Zero at the Mach angle asin(1/M) and at the normal shock pi/2.
    """
    if not mach > 1.0:
        raise ValueError("upstream Mach number must exceed 1")
    mach_angle = asin(1.0 / mach)
    if shock_angle < mach_angle - 1e-14 or shock_angle > 0.5 * pi + 1e-14:
        raise ValueError("shock angle outside [asin(1/M), pi/2]")
    return max(_turning(1.0 / (mach * mach), shock_angle, gas.gamma)[0], 0.0)


def detachment_shock_angle(mach, gas):
    """Shock angle of the largest attached deflection (NACA Report 1135).

    sin^2 b* = [(g+1) M^2/4 - 1 + sqrt((g+1)(1 + (g-1) M^2/2 + (g+1) M^4/16))]
               / (g M^2), evaluated divided through by M^2 so M^4 cannot overflow.
    """
    g, r = gas.gamma, 1.0 / (mach * mach)
    root = sqrt((g + 1.0) * (r * r + 0.5 * (g - 1.0) * r + (g + 1.0) / 16.0))
    return asin(sqrt(min((0.25 * (g + 1.0) - r + root) / g, 1.0)))


def max_deflection(mach, gas):
    """Largest attached deflection: the turning at the closed-form detachment_shock_angle."""
    return deflection_angle(mach, detachment_shock_angle(mach, gas), gas)


def max_deflection_limit(gas):
    """Limiting value of the maximum deflection as the Mach number grows."""
    return asin(1.0 / gas.gamma)


class DetachedShockError(ValueError):
    """The requested deflection exceeds the largest an attached shock gives."""


def solve_shock_angle(mach, alpha, branch, gas):
    """Invert the deflection relation on the requested branch.

    branch "weak" returns the smaller shock angle, "strong" the larger.
    A deflection beyond max_deflection(mach), the detached regime, raises
    DetachedShockError. With t = tan(alpha), r = 1/M^2 and x = tan(beta)
    the relation is the cubic (NACA Report 1135, divided through by M^2)

        t (g-1+2r) x^3 - 2 (1-r) x^2 + t (g+1+2r) x + 2r = 0.

    The strong root comes from the trigonometric form as w = t (g-1+2r) x,
    so beta = atan2(w, t (g-1+2r)) tends to pi/2 as t -> 0. The weak root is
    the positive root of the quadratic left by deflating the strong one,
    which cancels nothing. At most three Newton steps on the turning then
    polish the angle; a step is kept only if it stays between the branch's
    ends (asin(1/M), the detachment angle, pi/2) and lowers the miss.
    """
    if not mach > 1.0:
        raise ValueError("upstream Mach number must exceed 1")
    if alpha < 0.0:
        raise ValueError("deflection must be nonnegative")
    branch = branch.lower()
    if branch not in ("weak", "strong"):
        raise ValueError("branch must be 'weak' or 'strong'")
    lo = asin(1.0 / mach)
    hi = 0.5 * pi
    if alpha == 0.0:
        return lo if branch == "weak" else hi
    peak = detachment_shock_angle(mach, gas)
    alpha_peak = deflection_angle(mach, peak, gas)
    if alpha > alpha_peak:
        raise DetachedShockError("detached shock regime: deflection exceeds the maximum")
    if alpha == alpha_peak:
        return peak

    g, r, t = gas.gamma, 1.0 / (mach * mach), tan(alpha)
    a3, a1 = t * (g - 1.0 + 2.0 * r), t * (g + 1.0 + 2.0 * r)
    b2 = 2.0 * (mach - 1.0) * r * (mach + 1.0)  # 2 (1 - r), exact near M = 1, finite for M^2 near overflow
    d0 = b2 * b2 - 3.0 * a3 * a1
    cos3 = (b2 * b2 * b2 - 4.5 * a3 * a1 * b2 - 27.0 * a3 * a3 * r) / (d0 * sqrt(d0))
    w = (b2 + 2.0 * sqrt(d0) * cos(acos(min(max(cos3, -1.0), 1.0)) / 3.0)) / 3.0
    if branch == "strong":
        a, b, beta = peak, hi, atan2(w, a3)
    else:
        q = -2.0 * r / w
        p = (a3 * q - a1) / w
        a, b, beta = lo, peak, atan(0.5 * (sqrt(max(p * p - 4.0 * q, 0.0)) - p))
    beta = min(max(beta, a), b)

    turn, slope = _turning(r, beta, g)
    for _ in range(3):
        trial = beta - (turn - alpha) / slope if slope else beta
        if not a <= trial <= b:
            break
        t_turn, t_slope = _turning(r, trial, g)
        if not abs(t_turn - alpha) < abs(turn - alpha):
            break
        beta, turn, slope = trial, t_turn, t_slope
    return beta


_BRENT_MAXITER = 100


def brentq(f, a, b, xtol):
    """Root of f in the bracket [a, b] by Brent's method.

    A port of the algorithm behind SciPy's brentq: each step is an
    inverse-quadratic (or secant) step when that stays well inside the
    bracket and shrinks it fast enough, and a bisection otherwise. Stops
    once the bracket half-width is below (xtol + rtol |x|) / 2, with rtol
    8.9e-16 (4 machine epsilons). Raises ValueError when f(a) and f(b) have
    the same sign and RuntimeError when _BRENT_MAXITER steps do not converge.
    """
    rtol = 8.9e-16
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        interpolate = abs(spre) > delta and abs(fcur) < abs(fpre)
        if interpolate:
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            interpolate = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        if interpolate:
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("brentq did not converge in %d iterations" % _BRENT_MAXITER)


def lax_neighborhood_bound(gas):
    """Uniform constant delta_L controlling constant-neighborhood widths.

    Built as the minimum of the two concavity constants of the Lax margins
    and a floor constant divided by the largest possible jump size:

      d1 = c_min (sqrt(1 + z_max (gamma+1)/(2 gamma)) - 1) / (z_max speed_max)
      d2 = c_min sqrt((gamma-1)/(gamma+1))
           * (sqrt(1 + z_max) - sqrt(1 + z_max (gamma-1)/(2 gamma)))
           / (z_max speed_max)
      d3 = c_min sqrt((gamma-1)/(2 gamma)) / speed_max / J_max

    J_max bounds the Euclidean norm of any conserved-variable jump inside
    the phase-space box.
    """
    g = gas.gamma
    b = gas.bounds
    zm = gas.z_max
    sm = b.speed_max
    cm = gas.c_min
    rp, rm = strength_ratios(zm, g)
    d1 = cm * (sqrt(rp) - 1.0) / (zm * sm)
    d2 = cm * sqrt((g - 1.0) / (g + 1.0)) * (sqrt(1.0 + zm) - sqrt(rm)) / (zm * sm)
    d_rho = b.rho_max - b.rho_min
    d_mom = 2.0 * b.rho_max * sm
    d_en = (b.p_max - b.p_min) / (g - 1.0) + 0.5 * b.rho_max * sm * sm
    j_max = sqrt(d_rho * d_rho + 2.0 * d_mom * d_mom + d_en * d_en)
    d3 = cm * sqrt((g - 1.0) / (2.0 * g)) / sm / j_max
    return min(d1, d2, d3)
