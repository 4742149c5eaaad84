import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectorflow import flowfield, pmwave
from sectorflow.cli import parse_config
from sectorflow.gas import (
    ANGLE_TOL,
    PhaseBounds,
    PrimitiveState,
    make_gas,
    relative_gap,
    require_in_phase_space,
)
from sectorflow.polar import from_polar, to_polar
from sectorflow.pmwave import (
    PMWave,
    _sonic_rhs,
    fan_end,
    integrate_pm,
    pm_state_derivative,
    pm_wave_state,
)
from sectorflow.roe import jacobian
from sectorflow.shock import Orientation, brentq

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Frozen terminal values for the forward wave started sonic at
# rho = 1, p = 1, L = 0.9 (gamma 1.4) and run until L = 0. The wave
# conserves L^2/2 + (gamma+1) c^2 / (2 (gamma-1)), which pins the
# terminal sound speed and, through the isentrope, the density:
#   c_end^2 = 1.4 + 0.4 * 0.81 / 2.4 = 1.535
#   rho_end = (1.535 / 1.4) ** 2.5
ORACLE_C2_END = 1.535
ORACLE_RHO_END = 1.2587829746396422
ORACLE_P_END = 1.3801656186227507


def _sonic_start(gas, L0, theta0, rho0=1.0, p0=1.0, orient=Orientation.FORWARD):
    c0 = math.sqrt(gas.gamma * p0 / rho0)
    u0, v0 = from_polar(orient.sign * c0, L0, theta0)
    return PrimitiveState(rho=rho0, u=u0, v=v0, p=p0)


def L_zero_angle(gas, start, theta0, orient):
    """Angle of the wave's zero of L, from the closed-form fan phi0 -+ k (theta - theta0)."""
    k = math.sqrt((gas.gamma - 1.0) / (gas.gamma + 1.0))
    _, L0 = to_polar(start.u, start.v, theta0)
    return theta0 + math.atan2(L0, start.sound_speed(gas) / k) / (orient.sign * k)


def _fan_end(start, theta_start, theta_end, orient, gas):
    return fan_end(*start, theta_start, theta_end, orient, gas)


def test_rhs_values(gas):
    c = math.sqrt(1.4)
    drho, dL = _sonic_rhs(Orientation.FORWARD.sign, 1.0, gas.gamma)(1.0, 0.9)
    assert dL == pytest.approx(-c, rel=1e-15)
    assert drho == pytest.approx(2.0 * 0.9 / (2.4 * c), rel=1e-15)
    drb, dLb = _sonic_rhs(Orientation.BACKWARD.sign, 1.0, gas.gamma)(1.0, 0.9)
    assert dLb == pytest.approx(c, rel=1e-15)
    assert drb == pytest.approx(-drho, rel=1e-15)


@pytest.mark.parametrize("march", [integrate_pm, _fan_end])
def test_nonsonic_starts_rejected(gas, march):
    for N, orient in ((1.5, Orientation.FORWARD), (math.sqrt(1.4), Orientation.BACKWARD)):
        start = PrimitiveState(1.0, *from_polar(N, 0.9, 0.5), 1.0)
        with pytest.raises(ValueError, match="sonic"):
            march(start, 0.5, 0.9, orient, gas)


def test_terminal_state_oracle(gas):
    theta0 = 1.0
    start = _sonic_start(gas, 0.9, theta0)
    end = L_zero_angle(gas, start, theta0, Orientation.FORWARD)
    w = integrate_pm(start, theta0, end, Orientation.FORWARD, gas, steps=512)
    end = w.end_state()
    N, L = to_polar(end.u, end.v, w.theta_end)
    assert L == pytest.approx(0.0, abs=1e-10)
    assert end.sound_speed(gas) ** 2 == pytest.approx(ORACLE_C2_END, rel=1e-9)
    assert end.rho == pytest.approx(ORACLE_RHO_END, rel=1e-9)
    assert end.p == pytest.approx(ORACLE_P_END, rel=1e-9)


def test_sonic_and_isentrope_exact_at_samples(gas):
    theta0 = 0.3
    start = _sonic_start(gas, 0.7, theta0)
    w = integrate_pm(start, theta0, theta0 + 0.5, Orientation.FORWARD, gas)
    s0 = start.p / start.rho ** gas.gamma
    for t, prim in w.samples:
        N, L = to_polar(prim.u, prim.v, t)
        assert N == pytest.approx(prim.sound_speed(gas), rel=1e-14)
        assert prim.p / prim.rho ** gas.gamma == pytest.approx(s0, rel=1e-14)


def test_rk4_order_by_step_halving(gas):
    """Terminal error against a fine reference drops 16-fold per halving."""
    theta0, span = 0.2, 0.8
    start = _sonic_start(gas, 1.1, theta0)

    def terminal_rho(steps):
        w = integrate_pm(start, theta0, theta0 + span, Orientation.FORWARD, gas, steps=steps)
        return w.rhos[-1]

    ref = terminal_rho(4096)
    e1 = abs(terminal_rho(16) - ref)
    e2 = abs(terminal_rho(32) - ref)
    e3 = abs(terminal_rho(64) - ref)
    order12 = math.log2(e1 / e2)
    order23 = math.log2(e2 / e3)
    assert order12 >= 3.9
    assert order23 >= 3.9


def _unfolded_integrate_pm(start, theta_start, theta_end, orient, gas, steps=None):
    """integrate_pm with its rhs unfolded and its RK4 slopes in tuples: the bitwise reference."""
    L0, _, span = pmwave._wave_start(*start, theta_start, theta_end, orient, gas)
    require_in_phase_space(*start, gas, "starting state")
    gamma = gas.gamma
    s_ref = start.p / start.rho ** gamma
    sign = orient.sign

    def rhs(rho, L):
        if not rho > 0.0:
            raise ValueError("wave reaches vacuum before its end angle")
        c = math.sqrt(gamma * s_ref * rho ** (gamma - 1.0))
        return sign * 2.0 * rho * L / ((gamma + 1.0) * c), -sign * c

    if steps is None:
        steps = max(4, math.ceil(64.0 * span))
    h = span / steps
    thetas, rhos, Ls = [theta_start], [start.rho], [L0]
    d = rhs(start.rho, L0)
    drhos, dLs = [d[0]], [d[1]]
    for k in range(steps):
        rho, L = rhos[-1], Ls[-1]
        k1 = drhos[-1], dLs[-1]
        k2 = rhs(rho + 0.5 * h * k1[0], L + 0.5 * h * k1[1])
        k3 = rhs(rho + 0.5 * h * k2[0], L + 0.5 * h * k2[1])
        k4 = rhs(rho + h * k3[0], L + h * k3[1])
        rho += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        L += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        thetas.append(theta_start + (k + 1) * h)
        rhos.append(rho)
        Ls.append(L)
        d = rhs(rho, L)
        drhos.append(d[0])
        dLs.append(d[1])
    wave = PMWave(orient, theta_start, theta_end, tuple(thetas), tuple(rhos), tuple(Ls),
                  tuple(drhos), tuple(dLs), s_ref, gamma)
    for i in range(len(thetas) - 1):
        if (Ls[i] == 0.0 and i > 0) or Ls[i] * Ls[i + 1] < 0.0:
            crossing = brentq(
                lambda t: wave.reduced_at(t)[1], thetas[i], thetas[i + 1], xtol=1e-15
            )
            if abs(crossing - theta_end) > pmwave._END_CROSSING_TOL * (1.0 + span):
                raise ValueError("tangential velocity changes sign inside the wave")
            break
    n = len(thetas)
    for i in (0, n // 2, n - 1):
        require_in_phase_space(*wave.node_state(i), gas, "wave")
    return wave


def _shipped_wave_calls():
    """Positional arguments of the two integrate_pm calls in the march that lays two_sector."""
    cfg = parse_config((CONFIGS / "two_sector.json").read_text())
    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        return integrate_pm(*args, **kwargs)

    flowfield.integrate_pm = record
    try:
        flowfield.build_flow(cfg.gas, cfg.description)
    finally:
        flowfield.integrate_pm = integrate_pm
    return calls[-2:]


def _outcome(march, *args, **kwargs):
    try:
        return tuple(repr(field) for field in march(*args, **kwargs))
    except ValueError as e:
        return "ValueError: %s" % e


@pytest.mark.parametrize("steps", [1, 2, 3, 16, 40, 64, 100, None])
def test_folded_rk4_is_bitwise_the_unfolded_loop(gas, steps):
    """Every PMWave field, and every failure message, as the unfolded rhs and loop give them."""
    shipped = _shipped_wave_calls()
    assert [args[3] for args in shipped] == [Orientation.BACKWARD, Orientation.FORWARD]
    marches = [
        (_sonic_start(gas, 0.7, 0.8), 0.8, 1.3, Orientation.FORWARD, gas),
        (_sonic_start(gas, -0.6, 0.8, orient=Orientation.BACKWARD), 0.8, 1.25,
         Orientation.BACKWARD, gas),
        *shipped,
    ]
    for args in marches:
        want = _outcome(_unfolded_integrate_pm, *args, steps=steps)
        assert isinstance(want, tuple)
        assert _outcome(integrate_pm, *args, steps=steps) == want
    # the failures: L reaches zero at about 1.25, and vacuum past it
    for theta_end, match in ((2.5, "changes sign"), (7.0, "vacuum")):
        for L0, orient in ((0.3, Orientation.FORWARD), (-0.3, Orientation.BACKWARD)):
            args = (_sonic_start(gas, L0, 1.0, orient=orient), 1.0, theta_end, orient, gas)
            want = _outcome(_unfolded_integrate_pm, *args, steps=steps)
            assert match in want
            assert _outcome(integrate_pm, *args, steps=steps) == want


def test_default_step_density(gas):
    start = _sonic_start(gas, 0.9, 0.0)
    w = integrate_pm(start, 0.0, 0.5, Orientation.FORWARD, gas)
    assert len(w.thetas) == math.ceil(64 * 0.5) + 1


def test_dense_output_accuracy(gas):
    theta0, span = 0.1, 0.7
    start = _sonic_start(gas, 1.0, theta0)
    w = integrate_pm(start, theta0, theta0 + span, Orientation.FORWARD, gas)
    fine = integrate_pm(start, theta0, theta0 + span, Orientation.FORWARD, gas, steps=8192)
    for frac in (0.13, 0.37, 0.52, 0.81, 0.97):
        t = theta0 + frac * span
        rho_i, L_i = w.reduced_at(t)
        rho_f, L_f = fine.reduced_at(t)
        assert rho_i == pytest.approx(rho_f, abs=1e-6)
        assert L_i == pytest.approx(L_f, abs=1e-6)
    # within ANGLE_TOL of an end is still the wave; beyond it is not
    w.reduced_at(theta0 - 0.5 * ANGLE_TOL)
    w.reduced_at(theta0 + span + 0.5 * ANGLE_TOL)
    for t in (theta0 - 2.0 * ANGLE_TOL, theta0 + span + 2.0 * ANGLE_TOL):
        with pytest.raises(ValueError, match="angle outside the wave interval"):
            w.reduced_at(t)


def test_kernel_residual_along_wave(gas):
    """U_theta of the wave lies in the kernel of the frame Jacobian."""
    theta0, span = 0.4, 0.6
    start = _sonic_start(gas, 0.8, theta0)
    w = integrate_pm(start, theta0, theta0 + span, Orientation.FORWARD, gas)
    for frac in (0.2, 0.5, 0.9):
        t = theta0 + frac * span
        U, dU = pm_state_derivative(w, t, gas)
        A = jacobian(pm_wave_state(w, t), t, gas)
        r = A @ np.array(dU)
        assert np.linalg.norm(r) <= 1e-12 * max(1.0, float(np.linalg.norm(dU)))


def test_backward_kernel_residual(gas):
    theta0, span = 2.0, 0.5
    start = _sonic_start(gas, -0.8, theta0, orient=Orientation.BACKWARD)
    w = integrate_pm(start, theta0, theta0 + span, Orientation.BACKWARD, gas)
    t = theta0 + 0.3
    U, dU = pm_state_derivative(w, t, gas)
    A = jacobian(pm_wave_state(w, t), t, gas)
    assert np.linalg.norm(A @ np.array(dU)) <= 1e-12 * max(
        1.0, float(np.linalg.norm(dU))
    )


def test_interior_sign_change_raises(gas):
    theta0 = 1.0
    start = _sonic_start(gas, 0.3, theta0)
    # L hits zero well before the target angle
    with pytest.raises(ValueError, match="sign"):
        integrate_pm(start, theta0, theta0 + 1.5, Orientation.FORWARD, gas)


def test_wave_ending_at_the_l_zero(gas):
    theta0 = 1.0
    start = _sonic_start(gas, 0.3, theta0)
    end = L_zero_angle(gas, start, theta0, Orientation.FORWARD)
    w = integrate_pm(start, theta0, end, Orientation.FORWARD, gas)
    assert w.theta_end < theta0 + 1.5
    assert abs(w.Ls[-1]) <= 1e-10
    # past it, L changes sign inside the wave
    with pytest.raises(ValueError, match="changes sign"):
        integrate_pm(start, theta0, end + 0.01, Orientation.FORWARD, gas)


def test_wave_ending_just_past_the_l_zero(gas):
    # an L zero within the end tolerance of the end angle is the end, even
    # when the last RK4 step has crossed it
    theta0 = 1.0
    start = _sonic_start(gas, 0.3, theta0)
    zero = L_zero_angle(gas, start, theta0, Orientation.FORWARD)
    w = integrate_pm(start, theta0, zero + 1e-10, Orientation.FORWARD, gas)
    assert w.Ls[-2] > 0.0 > w.Ls[-1]
    _fan_end(start, theta0, zero + 1e-10, Orientation.FORWARD, gas)
    for march in (integrate_pm, _fan_end):
        with pytest.raises(ValueError, match="changes sign"):
            march(start, theta0, zero + 1e-6, Orientation.FORWARD, gas)


def _end(gas, start, theta0, span, orient, stop):
    return L_zero_angle(gas, start, theta0, orient) if stop else theta0 + span


@pytest.mark.parametrize(
    "L0, span, orient, stop",
    [
        (0.7, 0.5, Orientation.FORWARD, False),
        (-0.6, 0.45, Orientation.BACKWARD, False),
        (0.3, 1.5, Orientation.FORWARD, True),
    ],
)
def test_stored_slopes_are_the_rhs(gas, L0, span, orient, stop):
    """Every stored (drho, dL), the one at the L zero too, is the sonic rhs at its sample."""
    theta0 = 0.8
    start = _sonic_start(gas, L0, theta0, orient=orient)
    w = integrate_pm(start, theta0, _end(gas, start, theta0, span, orient, stop), orient, gas)
    assert (w.theta_end < theta0 + span) == stop
    for i, (t, prim) in enumerate(w.samples):
        N, L = to_polar(prim.u, prim.v, t)
        assert N == pytest.approx(orient.sign * prim.sound_speed(gas), rel=1e-14)
        s_ref = prim.p / prim.rho ** gas.gamma
        # relative, but absolute for d rho at the L zero
        near_zero = 1e-14 if abs(L) < 1e-8 else 0.0
        rhs = _sonic_rhs(orient.sign, s_ref, gas.gamma)(prim.rho, L)
        for got, want in zip((w.drhos[i], w.dLs[i]), rhs):
            assert got == pytest.approx(want, rel=1e-14, abs=near_zero)


def _bits(state):
    return tuple(x.hex() for x in (state.rho, state.u, state.v, state.p))


@pytest.mark.parametrize(
    "L0, span, orient, stop",
    [
        (0.7, 0.5, Orientation.FORWARD, False),
        (-0.6, 0.45, Orientation.BACKWARD, False),
        (0.3, 1.5, Orientation.FORWARD, True),
    ],
)
def test_node_states_are_the_dense_output_at_the_nodes(gas, L0, span, orient, stop):
    """end_state and samples read the stored nodes, bit for bit pm_wave_state there."""
    theta0 = 0.8
    start = _sonic_start(gas, L0, theta0, orient=orient)
    w = integrate_pm(start, theta0, _end(gas, start, theta0, span, orient, stop), orient, gas)
    assert _bits(w.end_state()) == _bits(pm_wave_state(w, w.thetas[-1]))
    for t, prim in w.samples:
        assert _bits(prim) == _bits(pm_wave_state(w, t))


@pytest.mark.parametrize(
    "L0, orient", [(0.7, Orientation.FORWARD), (-0.6, Orientation.BACKWARD)]
)
def test_fan_end_is_the_limit_of_rk4(gas, L0, orient):
    """The closed form agrees with RK4 at nodes and Hermite midpoints.

    Measured at 256 steps over 0.45 rad: nodes 8.8e-15, midpoints 9.1e-14
    (relative state gap). Halving the step cuts the node gap 16-fold, the
    order of RK4 against the exact solution.
    """
    theta0, span = 0.8, 0.45
    start = _sonic_start(gas, L0, theta0, orient=orient)

    def gaps(steps):
        w = integrate_pm(start, theta0, theta0 + span, orient, gas, steps=steps)
        # fan_end needs a nonempty span, so node 0 is compared with the start
        ends = [start] + [_fan_end(start, theta0, t, orient, gas) for t in w.thetas[1:]]
        nodes = [relative_gap(w.node_state(i), end) for i, end in enumerate(ends)]
        mids = [
            relative_gap(pm_wave_state(w, t), _fan_end(start, theta0, t, orient, gas))
            for t in (0.5 * (a + b) for a, b in zip(w.thetas, w.thetas[1:]))
        ]
        return max(nodes), max(mids)

    node_gap, mid_gap = gaps(256)
    assert node_gap <= 5e-14
    assert mid_gap <= 5e-13
    assert gaps(32)[0] / gaps(64)[0] >= 14.0


@pytest.mark.parametrize(
    "L0, theta_end, bounds, match",
    [
        (0.3, 2.5, None, "changes sign"),  # L reaches zero at about 1.25
        (0.3, 1.0 + 6.0, None, "vacuum"),
        (1.5, 0.6, (0.9, 1.05), "leaves phase space"),
        (0.4, 0.5, None, "nonempty interval"),
    ],
)
def test_fan_end_fails_where_integrate_pm_does(gas, L0, theta_end, bounds, match):
    if bounds is not None:
        gas = make_gas(
            1.4,
            PhaseBounds(rho_min=bounds[0], rho_max=bounds[1], p_min=0.5, p_max=2.0,
                        speed_max=15.0, e_min=1e-4),
        )
    theta0 = 0.0 if bounds is not None else 1.0
    start = _sonic_start(gas, L0, theta0)
    for march in (integrate_pm, _fan_end):
        with pytest.raises(ValueError, match=match):
            march(start, theta0, theta_end, Orientation.FORWARD, gas)


def test_nonsonic_start_rejected(gas):
    s = PrimitiveState(rho=1.0, u=2.0, v=0.0, p=1.0)
    with pytest.raises(ValueError, match="sonic"):
        integrate_pm(s, 0.0, 0.4, Orientation.FORWARD, gas)


def test_phase_space_exit_rejected():
    tight = make_gas(
        1.4,
        PhaseBounds(rho_min=0.9, rho_max=1.05, p_min=0.5, p_max=2.0,
                    speed_max=15.0, e_min=1e-4),
    )
    c0 = math.sqrt(1.4)
    u0, v0 = from_polar(c0, 1.5, 0.0)
    start = PrimitiveState(rho=1.0, u=u0, v=v0, p=1.0)
    with pytest.raises(ValueError, match="phase space"):
        integrate_pm(start, 0.0, 0.6, Orientation.FORWARD, tight)


@pytest.mark.parametrize("rho", [1e-300, 1e300])
def test_start_without_a_finite_isentrope_constant_rejected(rho):
    # rho^gamma underflows to 0 at 1e-300 and overflows at 1e300
    wide = make_gas(
        1.4,
        PhaseBounds(rho_min=1e-320, rho_max=1e301, p_min=1e-320, p_max=1e301,
                    speed_max=1e300, e_min=1e-320),
    )
    start = _sonic_start(wide, 0.5, 0.0, rho0=rho, p0=rho)
    for march in (integrate_pm, _fan_end):
        with pytest.raises(ValueError) as info:
            march(start, 0.0, 0.3, Orientation.FORWARD, wide)
        assert str(info.value) == "starting state has no finite positive p / rho^gamma"


def test_zero_length_wave(gas):
    # integrate_pm and fan_end refuse an empty interval, as the flow march and pm-trace do
    start = _sonic_start(gas, 0.4, 0.9)
    for march in (integrate_pm, _fan_end):
        with pytest.raises(ValueError, match="wave needs a nonempty interval"):
            march(start, 0.9, 0.9, Orientation.FORWARD, gas)
    # nor is a wave of one sample made by asking for no steps
    for steps in (0, -3):
        with pytest.raises(ValueError, match="wave needs at least one step"):
            integrate_pm(start, 0.9, 1.2, Orientation.FORWARD, gas, steps=steps)


def test_wave_too_narrow_for_its_steps(gas):
    # steps under the float spacing of the angles give two nodes one angle, so
    # the Hermite interval between them has width 0: evaluating the wave there
    # divided by zero, and so did the search for an L zero between them
    start = _sonic_start(gas, 0.9, 1.0)
    for end in (1.0 + 4e-16, 1.0 + 2e-16):
        with pytest.raises(ValueError, match="narrower than its angles resolve"):
            integrate_pm(start, 1.0, end, Orientation.FORWARD, gas)
    turn = _sonic_start(gas, 0.0, 0.00390625, orient=Orientation.BACKWARD)
    with pytest.raises(ValueError, match="narrower than its angles resolve"):
        integrate_pm(turn, 0.00390625, 0.003906250000000001, Orientation.BACKWARD, gas)
    # one step over the same span resolves, and the wave evaluates at both ends
    w = integrate_pm(start, 1.0, 1.0 + 4e-16, Orientation.FORWARD, gas, steps=1)
    assert pm_wave_state(w, w.theta_end) == w.end_state()


@settings(max_examples=60, deadline=None)
@given(
    L0=st.floats(0.2, 2.0, allow_nan=False, allow_infinity=False),
    rho0=st.floats(0.5, 3.0, allow_nan=False, allow_infinity=False),
    p0=st.floats(0.5, 3.0, allow_nan=False, allow_infinity=False),
    span=st.floats(0.05, 0.4, allow_nan=False, allow_infinity=False),
    forward=st.booleans(),
)
def test_wave_first_integral(L0, rho0, p0, span, forward):
    """L^2/2 + (gamma+1) c^2 / (2(gamma-1)) is conserved along any wave."""
    g = make_gas(
        1.4,
        PhaseBounds(rho_min=1e-3, rho_max=1e3, p_min=1e-3, p_max=1e3,
                    speed_max=1e3, e_min=1e-9),
    )
    orient = Orientation.FORWARD if forward else Orientation.BACKWARD
    theta0 = 0.7
    c0 = math.sqrt(g.gamma * p0 / rho0)
    sgn = 1.0 if forward else -1.0
    # pick the L sign that keeps |L| falling so the span stays in range
    u0, v0 = from_polar(orient.sign * c0, sgn * L0, theta0)
    start = PrimitiveState(rho=rho0, u=u0, v=v0, p=p0)
    end = min(theta0 + span, L_zero_angle(g, start, theta0, orient))
    w = integrate_pm(start, theta0, end, orient, g)
    gam = g.gamma

    def invariant(rho, L):
        c2 = gam * (p0 / rho0 ** gam) * rho ** (gam - 1.0)
        return 0.5 * L * L + 0.5 * (gam + 1.0) * c2 / (gam - 1.0)

    b0 = invariant(w.rhos[0], w.Ls[0])
    for rho, L in zip(w.rhos, w.Ls):
        assert invariant(rho, L) == pytest.approx(b0, rel=1e-8)

