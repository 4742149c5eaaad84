"""Polytropic gas thermodynamics, state representations and physical fluxes.

Everything here is nondimensional. A state is admissible when it sits inside
the phase-space box carried by the gas model (density, pressure, speed and
internal-energy bounds), and the toolkit additionally excludes stagnation
points (zero velocity) throughout.
"""

from collections import namedtuple
from math import sqrt

__all__ = [
    "PhaseBounds",
    "GasModel",
    "PrimitiveState",
    "relative_gap",
    "ConservedState",
    "PhaseReport",
    "make_gas",
    "primitive_to_conserved",
    "conserved_to_primitive",
    "physical_fluxes",
    "normal_flux",
    "ray_fluxes",
    "inside_box",
    "in_phase_space",
    "require_in_phase_space",
]


# The records here and in the other modules are immutable named tuples. A
# record that checks its fields does so in __new__, and its _make (through
# which _replace builds a copy) goes through __new__ too.


class PhaseBounds(namedtuple("PhaseBounds", "rho_min rho_max p_min p_max speed_max e_min")):
    """Box in phase space: density, pressure, speed and energy bounds."""

    __slots__ = ()

    def __new__(cls, rho_min, rho_max, p_min, p_max, speed_max, e_min):
        if not (0.0 < rho_min <= rho_max):
            raise ValueError("density bounds must satisfy 0 < rho_min <= rho_max")
        if not (0.0 < p_min <= p_max):
            raise ValueError("pressure bounds must satisfy 0 < p_min <= p_max")
        if not speed_max > 0.0:
            raise ValueError("speed_max must be positive")
        if not e_min > 0.0:
            raise ValueError("e_min must be positive")
        return tuple.__new__(cls, (rho_min, rho_max, p_min, p_max, speed_max, e_min))

    _make = classmethod(lambda cls, fields: cls(*fields))


class GasModel(namedtuple("GasModel", "gamma bounds c_min z_max")):
    """Ratio of specific heats plus phase-space bounds (a PhaseBounds).

    c_min is the smallest sound speed attainable in the box and z_max the
    largest shock strength (relative pressure jump) the box can hold. Both
    are precomputed by make_gas.
    """

    __slots__ = ()


def make_gas(gamma, bounds):
    """Build a GasModel, rejecting gamma <= 1 and inconsistent bounds."""
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    c_min = sqrt(gamma * bounds.p_min / bounds.rho_max)
    z_max = (bounds.p_max - bounds.p_min) / bounds.p_min
    return GasModel(gamma=gamma, bounds=bounds, c_min=c_min, z_max=z_max)


class PrimitiveState(namedtuple("PrimitiveState", "rho u v p")):
    """Primitive variables (rho, u, v, p) with derived thermodynamics."""

    __slots__ = ()

    def __new__(cls, rho, u, v, p):
        if not rho > 0.0:
            raise ValueError("nonpositive density")
        if not p > 0.0:
            raise ValueError("nonpositive pressure")
        return tuple.__new__(cls, (rho, u, v, p))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def speed(self):
        return sqrt(self.u * self.u + self.v * self.v)

    def internal_energy(self, gas):
        """Specific internal energy e = p / ((gamma - 1) rho)."""
        return self.p / ((gas.gamma - 1.0) * self.rho)

    def sound_speed(self, gas):
        return sqrt(gas.gamma * self.p / self.rho)

    def enthalpy(self, gas):
        """Total specific enthalpy h = gamma p / ((gamma-1) rho) + |u|^2 / 2."""
        g = gas.gamma
        return g * self.p / ((g - 1.0) * self.rho) + 0.5 * (self.u ** 2 + self.v ** 2)

    def total_energy(self, gas):
        """Total energy per unit volume, p/(gamma-1) + rho |u|^2 / 2."""
        return self.p / (gas.gamma - 1.0) + 0.5 * self.rho * (self.u ** 2 + self.v ** 2)


def relative_gap(a, b):
    """Max over paired components of |a - b| / max(|a|, |b|, 1), on two states or (rho, u, v, p) tuples."""
    return max(abs(x - y) / max(abs(x), abs(y), 1.0) for x, y in zip(a, b))


# The tolerances of the builder and the audit, in one table; the audit's first.
WEAK_TOL = 1e-10  # scaled weak residual
ENTROPY_TOL = 1e-10  # scaled entropy production, from below
SMOOTH_TOL = 1e-6  # scaled smooth residual
STRUCTURE_TOL = 1e-6  # wave classification and sector turning
# The largest jump the builder lays by accident (a wave start's |N -+ c| / c,
# a shock side's or the seam's relative_gap), under WEAK_TOL and ENTROPY_TOL:
# on two_sector anchored near its wave's sonic angle the weak residual is
# about 0.84 and the entropy production -0.66 times the start's N gap / c.
MATCH_TOL = WEAK_TOL / 10
NO_JUMP_TOL = 1e-9  # two states within this relative_gap are not a jump


class ConservedState(namedtuple("ConservedState", "rho mom_x mom_y energy")):
    """Conserved variables (rho, rho u, rho v, total energy per volume)."""

    __slots__ = ()


def primitive_to_conserved(s, gas):
    """Map (rho, u, v, p) to (rho, rho u, rho v, E)."""
    return ConservedState(
        rho=s.rho,
        mom_x=s.rho * s.u,
        mom_y=s.rho * s.v,
        energy=s.total_energy(gas),
    )


def conserved_to_primitive(c, gas):
    """Invert primitive_to_conserved, rejecting nonphysical inputs."""
    if not c.rho > 0.0:
        raise ValueError("nonpositive density")
    u = c.mom_x / c.rho
    v = c.mom_y / c.rho
    p = (gas.gamma - 1.0) * (c.energy - 0.5 * c.rho * (u * u + v * v))
    if not p > 0.0:
        raise ValueError("nonpositive pressure")
    return PrimitiveState(rho=c.rho, u=u, v=v, p=p)


def _euler_fluxes(rho, u, v, p, gamma):
    """f^x and f^y as two 4-tuples, in plain arithmetic on floats or arrays."""
    E = p / (gamma - 1.0) + 0.5 * rho * (u ** 2 + v ** 2)
    fx = (rho * u, rho * u * u + p, rho * u * v, u * (E + p))
    fy = (rho * v, rho * u * v, rho * v * v + p, v * (E + p))
    return fx, fy


def physical_fluxes(s, gas):
    """Euler fluxes f^x and f^y of the state, as two 4-tuples.

    f^x = (rho u, rho u^2 + p, rho u v, u (E + p))
    f^y = (rho v, rho u v, rho v^2 + p, v (E + p))
    """
    return _euler_fluxes(s.rho, s.u, s.v, s.p, gas.gamma)


def normal_flux(fx, fy, st, ct):
    """G = sin(theta) f^x - cos(theta) f^y from the Euler fluxes, on floats or arrays."""
    return [st * x - ct * y for x, y in zip(fx, fy)]


def ray_fluxes(rho, u, v, p, theta, gamma):
    """Fluxes through (G) and along (H) the ray at theta, elementwise on arrays.

    Both come back as (5, n) arrays with rows mass, momentum x, momentum y,
    energy and entropy: normal_flux and H = cos(theta) f^x + sin(theta) f^y
    for the Euler rows, rho N s and rho L s for the entropy surrogate
    s = p / rho^gamma (N, L as in polar.to_polar).
    """
    import numpy as np

    st, ct = np.sin(theta), np.cos(theta)
    fx, fy = _euler_fluxes(rho, u, v, p, gamma)
    s = p / rho ** gamma
    G = normal_flux(fx, fy, st, ct) + [rho * (u * st - v * ct) * s]
    H = [ct * x + st * y for x, y in zip(fx, fy)] + [rho * (u * ct + v * st) * s]
    return np.array(G), np.array(H)


class PhaseReport(namedtuple("PhaseReport", "ok violations")):
    """Outcome of a phase-space membership check."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def inside_box(rho, u, v, p, gas):
    """True when in_phase_space finds no violation; False also for NaN, which it lets pass."""
    b = gas.bounds
    return (
        b.rho_min <= rho <= b.rho_max
        and b.p_min <= p <= b.p_max
        and p / ((gas.gamma - 1.0) * rho) >= b.e_min
        and 0.0 < sqrt(u * u + v * v) <= b.speed_max
    )


def in_phase_space(s, gas):
    """Check a state against the model's box, reporting each violation.

    The no-stagnation assumption is enforced here as well: a state with
    zero velocity is rejected even if its thermodynamics are in bounds.
    """
    if inside_box(s.rho, s.u, s.v, s.p, gas):
        return PhaseReport(ok=True, violations=())
    b = gas.bounds
    bad = []
    if s.rho < b.rho_min:
        bad.append("density below floor")
    if s.rho > b.rho_max:
        bad.append("density above ceiling")
    if s.p < b.p_min:
        bad.append("pressure below floor")
    if s.p > b.p_max:
        bad.append("pressure above ceiling")
    if s.internal_energy(gas) < b.e_min:
        bad.append("internal energy below floor")
    q = s.speed
    if q > b.speed_max:
        bad.append("speed above ceiling")
    if q == 0.0:
        bad.append("stagnation point")
    return PhaseReport(ok=not bad, violations=tuple(bad))


def require_in_phase_space(rho, u, v, p, gas, what):
    """Raise ValueError("<what> leaves phase space: <violations>"); no state is built inside the box."""
    if not inside_box(rho, u, v, p, gas):
        report = in_phase_space(PrimitiveState(rho, u, v, p), gas)
        if not report:
            raise ValueError(what + " leaves phase space: " + "; ".join(report.violations))
