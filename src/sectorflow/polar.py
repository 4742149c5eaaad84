"""Velocity frame attached to the ray at angle theta.

At a given theta the frame splits the velocity into N (normal to the ray,
positive when the gas crosses rays toward decreasing theta) and L (along
the ray, positive outward):

    N = u sin(theta) - v cos(theta)
    L = u cos(theta) + v sin(theta)

The transform is a rotation, so it preserves speed and inverts exactly.
"""

from collections import namedtuple
from math import cos, pi, sin, sqrt

from .gas import PrimitiveState

TWO_PI = 2.0 * pi


def wrap_angle(theta):
    """Reduce an angle to the canonical circle [0, 2*pi)."""
    t = theta % TWO_PI
    # % can return the modulus itself through rounding when theta is a
    # tiny negative number
    if t >= TWO_PI:
        t -= TWO_PI
    return t


def wrap_signed(theta):
    """Reduce an angle to (-pi, pi]."""
    t = theta % TWO_PI
    if t > pi:
        t -= TWO_PI
    return t


def to_polar(u, v, theta):
    """Cartesian velocity to (N, L) at the ray angle theta."""
    st, ct = sin(theta), cos(theta)
    return u * st - v * ct, u * ct + v * st


def from_polar(N, L, theta):
    """(N, L) at the ray angle theta back to Cartesian velocity."""
    st, ct = sin(theta), cos(theta)
    return N * st + L * ct, -N * ct + L * st


class PolarState(namedtuple("PolarState", "theta N L rho p")):
    """A thermodynamic state carried in the ray frame at angle theta."""

    __slots__ = ()

    def velocity(self):
        return from_polar(self.N, self.L, self.theta)

    def sound_speed(self, gas):
        return sqrt(gas.gamma * self.p / self.rho)

    def to_primitive(self):
        u, v = self.velocity()
        return PrimitiveState(rho=self.rho, u=u, v=v, p=self.p)
