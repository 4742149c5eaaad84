import math

import pytest
from hypothesis import given, strategies as st

from sectorflow.cli import _csv_text
from sectorflow.gas import PhaseBounds, make_gas
from sectorflow.polar import (
    PolarState,
    from_polar,
    to_polar,
    wrap_angle,
    wrap_signed,
)

angles = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
vels = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
GAS = make_gas(1.4, PhaseBounds(0.05, 20.0, 0.05, 20.0, 15.0, 1e-3))


def csv_phi(u, v, theta):
    """The flow angle phi the CSV export writes for velocity (u, v) on the ray at theta.

    The export rebuilds the velocity from its frame values N and L.
    """
    row = _csv_text(GAS, [theta], [(1.0, u, v, 1.0)]).splitlines()[1]
    return float(row.split(",")[-1])


def test_frame_at_axes():
    # ray pointing along +y: N picks out u, L picks out v
    N, L = to_polar(1.0, 0.0, math.pi / 2)
    assert N == pytest.approx(1.0) and L == pytest.approx(0.0)
    N, L = to_polar(0.0, 1.0, math.pi / 2)
    assert N == pytest.approx(0.0) and L == pytest.approx(1.0)
    # ray along +x: N picks out -v, L picks out u
    N, L = to_polar(0.0, 1.0, 0.0)
    assert N == pytest.approx(-1.0) and L == pytest.approx(0.0)


def test_positive_normal_moves_to_smaller_theta():
    """A particle on the ray with N > 0 drifts toward decreasing angle."""
    theta = 0.7
    u, v = from_polar(1.0, 0.0, theta)
    # position on the ray, then one explicit Euler step of the motion
    x, y = math.cos(theta), math.sin(theta)
    eps = 1e-6
    theta_after = math.atan2(y + eps * v, x + eps * u)
    assert theta_after < theta


@given(u=vels, v=vels, theta=angles)
def test_round_trip(u, v, theta):
    N, L = to_polar(u, v, theta)
    u2, v2 = from_polar(N, L, theta)
    assert u2 == pytest.approx(u, abs=1e-12)
    assert v2 == pytest.approx(v, abs=1e-12)


@given(u=vels, v=vels, theta=angles)
def test_rotation_preserves_speed(u, v, theta):
    N, L = to_polar(u, v, theta)
    assert math.hypot(N, L) == pytest.approx(math.hypot(u, v), abs=1e-12)


@given(u=vels, v=vels, theta=angles)
def test_flow_angle_matches_velocity_direction(u, v, theta):
    if math.hypot(u, v) < 1e-12:
        # below this the reference expression itself loses precision
        return
    phi = csv_phi(u, v, theta)
    assert -math.pi < phi <= math.pi
    assert math.cos(phi) == pytest.approx(u / math.hypot(u, v), abs=1e-9)
    assert math.sin(phi) == pytest.approx(v / math.hypot(u, v), abs=1e-9)


@given(u=vels, v=vels, theta=angles)
def test_flow_angle_ratio_form(u, v, theta):
    """Where L > 0 the flow angle is theta minus arctan(N/L), mod 2 pi."""
    N, L = to_polar(u, v, theta)
    if L <= 1e-6:
        return
    phi = csv_phi(u, v, theta)
    expect = theta - math.atan(N / L)
    assert wrap_angle(phi - expect) == pytest.approx(0.0, abs=1e-9) or wrap_angle(
        phi - expect
    ) == pytest.approx(2.0 * math.pi, abs=1e-9)


@given(theta=angles)
def test_wrapping(theta):
    t = wrap_angle(theta)
    assert 0.0 <= t < 2.0 * math.pi
    assert math.cos(t) == pytest.approx(math.cos(theta), abs=1e-9)
    assert math.sin(t) == pytest.approx(math.sin(theta), abs=1e-9)
    s = wrap_signed(theta)
    assert -math.pi < s <= math.pi
    assert math.cos(s) == pytest.approx(math.cos(theta), abs=1e-9)


def test_polar_state_accessors(gas):
    ps = PolarState(theta=0.3, N=1.5, L=-0.4, rho=2.0, p=3.0)
    u, v = ps.velocity()
    N, L = to_polar(u, v, 0.3)
    assert N == pytest.approx(1.5) and L == pytest.approx(-0.4)
    assert ps.sound_speed(gas) == pytest.approx(math.sqrt(1.4 * 1.5))
    prim = ps.to_primitive()
    assert prim.rho == 2.0 and prim.p == 3.0
    assert prim.u == pytest.approx(u) and prim.v == pytest.approx(v)
    assert csv_phi(prim.u, prim.v, 0.3) == pytest.approx(math.atan2(v, u))
