"""Flux Jacobian in the ray frame, its averaged form, and the eigensystem.

A(U; theta) = sin(theta) f^x_U - cos(theta) f^y_U. The averaged matrix for
a pair of states is the same closed form evaluated at sqrt(rho)-weighted
velocities and enthalpy; it reproduces the exact rotated-flux jump between
the two states (the linearization property checked in the tests).
"""

from collections import namedtuple
from math import cos, sin, sqrt

import numpy as np

from .gas import primitive_to_conserved, conserved_to_primitive


def _frame_matrix(u, v, h, theta, gamma):
    """The 4x4 closed form shared by the exact and the averaged Jacobian."""
    st, ct = sin(theta), cos(theta)
    gm1 = gamma - 1.0
    q2 = u * u + v * v
    N = u * st - v * ct
    return np.array(
        [
            [0.0, st, -ct, 0.0],
            [
                st * 0.5 * gm1 * q2 - u * N,
                N + (2.0 - gamma) * u * st,
                -u * ct - gm1 * v * st,
                st * gm1,
            ],
            [
                -ct * 0.5 * gm1 * q2 - v * N,
                v * st + gm1 * u * ct,
                N + (gamma - 2.0) * v * ct,
                -ct * gm1,
            ],
            [
                (0.5 * gm1 * q2 - h) * N,
                h * st - gm1 * N * u,
                -h * ct - gm1 * N * v,
                gamma * N,
            ],
        ]
    )


def jacobian(s, theta, gas):
    """Exact Jacobian of the rotated flux at a single state."""
    return _frame_matrix(s.u, s.v, s.enthalpy(gas), theta, gas.gamma)


class RoeAverage(namedtuple("RoeAverage", "theta u_bar v_bar h_bar c_bar N_bar")):
    """sqrt(rho)-weighted average of two states at a fixed angle."""

    __slots__ = ()


def roe_average(left, right, gas, theta=0.0):
    """Average two states with sqrt(rho) weights.

    Symmetric in its two state arguments; collapses to the plain state
    values when both sides agree.
    """
    wl = sqrt(left.rho)
    wr = sqrt(right.rho)
    den = wl + wr
    u_bar = (left.u * wl + right.u * wr) / den
    v_bar = (left.v * wl + right.v * wr) / den
    h_bar = (left.enthalpy(gas) * wl + right.enthalpy(gas) * wr) / den
    c2 = (gas.gamma - 1.0) * (h_bar - 0.5 * (u_bar * u_bar + v_bar * v_bar))
    if not c2 > 0.0:
        raise ValueError("averaged sound speed is not positive")
    N_bar = u_bar * sin(theta) - v_bar * cos(theta)
    return RoeAverage(
        theta=theta, u_bar=u_bar, v_bar=v_bar, h_bar=h_bar, c_bar=sqrt(c2), N_bar=N_bar
    )


def roe_matrix(left, right, theta, gas):
    """Averaged matrix for the pair: the exact Jacobian at the averaged state."""
    avg = roe_average(left, right, gas, theta)
    return _frame_matrix(avg.u_bar, avg.v_bar, avg.h_bar, theta, gas.gamma)


class EigenSystem(namedtuple("EigenSystem", "eigenvalues right left")):
    """Analytic eigendecomposition of the frame matrix.

    eigenvalues are ordered (N-c, N, N, N+c). right holds the right
    eigenvectors as columns, left the left eigenvectors as rows, both as
    arrays, scaled so that left @ right is the identity.
    """

    __slots__ = ()

    def reconstruct(self):
        return self.right @ np.diag(self.eigenvalues) @ self.left


def eigensystem(avg, theta, gas):
    """Eigenvalues and a biorthonormal eigenbasis at an averaged state.

    The acoustic pair uses the columns (1, u +- c sin, v -+ c cos, h +- N c).
    The double middle eigenvalue takes the entropy vector (1, u, v, q^2/2)
    and the shear vector (0, cos, sin, L).
    """
    u, v, h, c, N = avg.u_bar, avg.v_bar, avg.h_bar, avg.c_bar, avg.N_bar
    if not c > 0.0:
        raise ValueError("degenerate averaged sound speed")
    g = gas.gamma
    st, ct = sin(theta), cos(theta)
    L = u * ct + v * st
    q2 = u * u + v * v

    r_minus = (1.0, u - c * st, v + c * ct, h - N * c)
    r_ent = (1.0, u, v, 0.5 * q2)
    r_shear = (0.0, ct, st, L)
    r_plus = (1.0, u + c * st, v - c * ct, h + N * c)
    right = np.array([r_minus, r_ent, r_shear, r_plus]).T

    b1 = (g - 1.0) / (c * c)
    b2 = 0.5 * b1 * q2
    l_minus = (
        0.5 * (b2 + N / c),
        0.5 * (-b1 * u - st / c),
        0.5 * (-b1 * v + ct / c),
        0.5 * b1,
    )
    l_ent = (1.0 - b2, b1 * u, b1 * v, -b1)
    l_shear = (-L, ct, st, 0.0)
    l_plus = (
        0.5 * (b2 - N / c),
        0.5 * (-b1 * u + st / c),
        0.5 * (-b1 * v - ct / c),
        0.5 * b1,
    )
    left = np.array([l_minus, l_ent, l_shear, l_plus])

    return EigenSystem(eigenvalues=(N - c, N, N, N + c), right=right, left=left)


def genuine_nonlinearity(s, theta, gas, rel_step=1e-6):
    """Directional derivatives of N +- c along their own eigenvectors.

    Computed by a central finite difference in conserved variables along
    the acoustic eigenvectors normalized to first component 1, matching
    the closed form +-(gamma + 1) c / (2 rho).
    """
    c = s.sound_speed(gas)
    h = s.enthalpy(gas)
    st, ct = sin(theta), cos(theta)
    N = s.u * st - s.v * ct
    cons = np.array(primitive_to_conserved(s, gas))

    def n_pm(vec, sign):
        prim = conserved_to_primitive(
            type(primitive_to_conserved(s, gas))(*vec), gas
        )
        cc = prim.sound_speed(gas)
        return prim.u * st - prim.v * ct + sign * cc

    out = []
    for sign in (1.0, -1.0):
        r = np.array([1.0, s.u + sign * c * st, s.v - sign * c * ct, h + sign * N * c])
        eps = rel_step * max(1.0, float(np.linalg.norm(cons)))
        hi = n_pm(cons + eps * r, sign)
        lo = n_pm(cons - eps * r, sign)
        out.append((hi - lo) / (2.0 * eps))
    gn_plus, gn_minus = out
    return gn_plus, gn_minus
