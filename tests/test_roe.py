import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectorflow.gas import PhaseBounds, PrimitiveState, make_gas, physical_fluxes, primitive_to_conserved
from sectorflow.polar import PolarState
from sectorflow.roe import (
    eigensystem,
    genuine_nonlinearity,
    jacobian,
    roe_average,
    roe_matrix,
)
from sectorflow.shock import Orientation, shock_from_strength

rhos = st.floats(0.2, 8.0, allow_nan=False, allow_infinity=False)
ps = st.floats(0.2, 8.0, allow_nan=False, allow_infinity=False)
vels = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
angles = st.floats(0.0, 6.3, allow_nan=False, allow_infinity=False)


def _wide():
    return make_gas(
        1.4,
        PhaseBounds(rho_min=1e-3, rho_max=1e3, p_min=1e-3, p_max=1e3,
                    speed_max=1e3, e_min=1e-9),
    )


def _rotated_flux(s, theta, gas):
    fx, fy = physical_fluxes(s, gas)
    st_, ct = math.sin(theta), math.cos(theta)
    return np.array([st_ * fx[i] - ct * fy[i] for i in range(4)])


def test_jacobian_matches_finite_difference(gas):
    s = PrimitiveState(rho=1.3, u=0.7, v=-1.1, p=2.2)
    theta = 0.8
    A = jacobian(s, theta, gas)
    U0 = np.array(primitive_to_conserved(s, gas))
    fd = np.zeros((4, 4))
    for j in range(4):
        h = 1e-7 * max(1.0, abs(U0[j]))
        for sgn, w in ((1.0, 1.0), (-1.0, -1.0)):
            U = U0.copy()
            U[j] += sgn * h
            rho, mx, my, E = U
            u, v = mx / rho, my / rho
            p = 0.4 * (E - 0.5 * rho * (u * u + v * v))
            prim = PrimitiveState(rho=rho, u=u, v=v, p=p)
            fd[:, j] += w * _rotated_flux(prim, theta, gas) / (2.0 * h)
    assert np.allclose(A, fd, rtol=1e-5, atol=1e-6)


@settings(max_examples=150)
@given(rl=rhos, pl=ps, ul=vels, vl=vels, rr=rhos, pr=ps, ur=vels, vr=vels, theta=angles)
def test_averaged_matrix_reproduces_flux_jump(rl, pl, ul, vl, rr, pr, ur, vr, theta):
    g = _wide()
    left = PrimitiveState(rho=rl, u=ul, v=vl, p=pl)
    right = PrimitiveState(rho=rr, u=ur, v=vr, p=pr)
    A = roe_matrix(left, right, theta, g)
    dU = np.array(primitive_to_conserved(right, g)) - np.array(
        primitive_to_conserved(left, g)
    )
    dF = _rotated_flux(right, theta, g) - _rotated_flux(left, theta, g)
    scale = max(1.0, float(np.linalg.norm(dF)))
    assert np.linalg.norm(A @ dU - dF) <= 1e-11 * scale


@given(rho=rhos, p=ps, u=vels, v=vels, theta=angles)
def test_average_consistency(rho, p, u, v, theta):
    """Averaging a state with itself gives back the exact Jacobian."""
    g = _wide()
    s = PrimitiveState(rho=rho, u=u, v=v, p=p)
    assert np.allclose(roe_matrix(s, s, theta, g), jacobian(s, theta, g), rtol=0, atol=1e-12)


def test_average_symmetry(gas):
    a = PrimitiveState(rho=1.0, u=0.4, v=0.2, p=1.5)
    b = PrimitiveState(rho=3.0, u=-0.8, v=1.0, p=0.7)
    x = roe_average(a, b, gas, 0.5)
    y = roe_average(b, a, gas, 0.5)
    assert x.u_bar == pytest.approx(y.u_bar, rel=1e-14)
    assert x.v_bar == pytest.approx(y.v_bar, rel=1e-14)
    assert x.h_bar == pytest.approx(y.h_bar, rel=1e-14)
    assert x.c_bar == pytest.approx(y.c_bar, rel=1e-14)


@settings(max_examples=150)
@given(rho=rhos, p=ps, u=vels, v=vels, theta=angles)
def test_eigensystem_identities(rho, p, u, v, theta):
    g = _wide()
    s = PrimitiveState(rho=rho, u=u, v=v, p=p)
    avg = roe_average(s, s, g, theta)
    es = eigensystem(avg, theta, g)
    A = jacobian(s, theta, g)
    lam = np.array(es.eigenvalues)

    # ordering and multiplicity
    assert lam[0] == pytest.approx(avg.N_bar - avg.c_bar, rel=1e-14, abs=1e-14)
    assert lam[1] == lam[2] == pytest.approx(avg.N_bar, rel=1e-14, abs=1e-14)
    assert lam[3] == pytest.approx(avg.N_bar + avg.c_bar, rel=1e-14, abs=1e-14)

    scale = max(1.0, float(np.abs(A).max()))
    for k in range(4):
        r = es.right[:, k]
        assert np.linalg.norm(A @ r - lam[k] * r) <= 1e-10 * scale * max(
            1.0, float(np.linalg.norm(r))
        )
        l = es.left[k, :]
        assert np.linalg.norm(l @ A - lam[k] * l) <= 1e-10 * scale * max(
            1.0, float(np.linalg.norm(l))
        )
    assert np.linalg.norm(es.left @ es.right - np.eye(4)) <= 1e-10
    assert np.linalg.norm(es.reconstruct() - A) <= 1e-9 * scale


def test_eigenvalues_match_numpy(gas):
    s = PrimitiveState(rho=2.0, u=1.5, v=-0.6, p=1.1)
    theta = 2.1
    A = jacobian(s, theta, gas)
    mine = np.sort(np.array(eigensystem(roe_average(s, s, gas, theta), theta, gas).eigenvalues))
    ref = np.sort(np.linalg.eigvals(A).real)
    assert np.allclose(mine, ref, atol=1e-10)


def test_steady_shock_pair_has_zero_acoustic_eigenvalue(gas):
    """The averaged matrix of a standing shock annihilates the jump,
    so the acoustic eigenvalue on the shock family vanishes."""
    theta = 1.0
    up = PolarState(theta=theta, N=0.0, L=1.2, rho=1.0, p=1.0)
    sol = shock_from_strength(up, 0.8, Orientation.FORWARD, gas)
    avg = roe_average(
        sol.left_state().to_primitive(), sol.right_state().to_primitive(), gas, theta
    )
    assert avg.N_bar - avg.c_bar == pytest.approx(0.0, abs=1e-12)

    bwd = shock_from_strength(up, 0.8, Orientation.BACKWARD, gas)
    avg_b = roe_average(
        bwd.left_state().to_primitive(), bwd.right_state().to_primitive(), gas, theta
    )
    assert avg_b.N_bar + avg_b.c_bar == pytest.approx(0.0, abs=1e-12)


def test_average_sound_speed_positive_even_for_opposed_jets():
    # the weighted average satisfies a Jensen inequality, so the averaged
    # sound speed stays positive for any physical pair, however extreme
    g = _wide()
    a = PrimitiveState(rho=1.0, u=900.0, v=0.0, p=1e-3)
    b = PrimitiveState(rho=1.0, u=-900.0, v=0.0, p=1e-3)
    assert roe_average(a, b, g, 0.0).c_bar > 0.0


@settings(max_examples=80)
@given(rho=rhos, p=ps, u=vels, v=vels, theta=angles)
def test_genuine_nonlinearity_closed_form(rho, p, u, v, theta):
    g = _wide()
    s = PrimitiveState(rho=rho, u=u, v=v, p=p)
    gn_plus, gn_minus = genuine_nonlinearity(s, theta, g)
    c = s.sound_speed(g)
    expect = (g.gamma + 1.0) * c / (2.0 * rho)
    assert gn_plus == pytest.approx(expect, rel=2e-5)
    assert gn_minus == pytest.approx(-expect, rel=2e-5)
    assert gn_plus > 0.0 > gn_minus
