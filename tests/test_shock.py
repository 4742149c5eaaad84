import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sectorflow import shock
from sectorflow.gas import PhaseBounds, PrimitiveState, make_gas
from sectorflow.polar import PolarState, to_polar
from sectorflow.shock import (
    DetachedShockError,
    DiscontinuityKind,
    Orientation,
    brentq,
    check_admissibility,
    classify_discontinuity,
    deflection_angle,
    detachment_shock_angle,
    downstream_normal_mach,
    lax_neighborhood_bound,
    max_deflection,
    max_deflection_limit,
    normal_floor,
    rh_residual,
    shock_from_strength,
    solve_shock_angle,
    strength_from_normal_mach,
)

# Frozen closed-form values for gamma = 1.4, z = 0.8 on upstream
# rho = 1, p = 1 (worked out by hand from the strength relations):
#   N_front = sqrt(1.4) * sqrt(1 + 0.8 * 2.4 / 2.8)
#   rho_back = (1 + 0.8 * 2.4 / 2.8) / (1 + 0.8 * 0.4 / 2.8)
#   N_back = 1.4 * (1 + 0.8 * 0.4 / 2.8) / N_front
ORACLE_N_FRONT = 1.5362291495737217
ORACLE_RHO_BACK = 1.5128205128205128
ORACLE_P_BACK = 1.8
ORACLE_N_BACK = 1.0154735056504263
ORACLE_MACH_FRONT = 1.2983506020002016
ORACLE_MACH_BACK = 0.7867957924694432


def _hugoniot(tau, p, tau_ref, p_ref, gas):
    """H = e(tau, p) - e(tau_ref, p_ref) + (tau - tau_ref)(p + p_ref)/2, zero on a shock pair."""
    gm1 = gas.gamma - 1.0
    return p * tau / gm1 - p_ref * tau_ref / gm1 + 0.5 * (tau - tau_ref) * (p + p_ref)


def _upstream(theta=1.0, L=1.2):
    return PolarState(theta=theta, N=0.0, L=L, rho=1.0, p=1.0)


def test_forward_shock_closed_form(gas):
    sol = shock_from_strength(_upstream(), 0.8, Orientation.FORWARD, gas)
    assert sol.upstream.N == pytest.approx(ORACLE_N_FRONT, rel=1e-14)
    assert sol.downstream.rho == pytest.approx(ORACLE_RHO_BACK, rel=1e-14)
    assert sol.downstream.p == pytest.approx(ORACLE_P_BACK, rel=1e-14)
    assert sol.downstream.N == pytest.approx(ORACLE_N_BACK, rel=1e-14)
    # tangential velocity and angle carried through unchanged
    assert sol.downstream.L == sol.upstream.L == 1.2
    assert sol.mass_flux == pytest.approx(ORACLE_N_FRONT, rel=1e-14)
    assert sol.downstream.rho * sol.downstream.N == pytest.approx(
        sol.mass_flux, rel=1e-14
    )


def test_backward_shock_mirrors_forward(gas):
    f = shock_from_strength(_upstream(), 0.8, Orientation.FORWARD, gas)
    b = shock_from_strength(_upstream(), 0.8, Orientation.BACKWARD, gas)
    assert b.upstream.N == pytest.approx(-f.upstream.N, rel=1e-14)
    assert b.downstream.N == pytest.approx(-f.downstream.N, rel=1e-14)
    assert b.downstream.rho == pytest.approx(f.downstream.rho, rel=1e-14)
    assert b.downstream.p == pytest.approx(f.downstream.p, rel=1e-14)
    # theta-side labels swap with orientation
    assert f.right_state() is f.upstream and f.left_state() is f.downstream
    assert b.right_state() is b.downstream and b.left_state() is b.upstream


def test_lax_inequalities_oracle(gas):
    sol = shock_from_strength(_upstream(), 0.8, Orientation.FORWARD, gas)
    cf = sol.upstream.sound_speed(gas)
    cb = sol.downstream.sound_speed(gas)
    assert sol.upstream.N / cf == pytest.approx(ORACLE_MACH_FRONT, rel=1e-14)
    assert sol.downstream.N / cb == pytest.approx(ORACLE_MACH_BACK, rel=1e-14)
    assert downstream_normal_mach(0.8, 1.4) == pytest.approx(
        ORACLE_MACH_BACK, rel=1e-14
    )


def test_strength_errors(gas):
    with pytest.raises(ValueError, match="positive"):
        shock_from_strength(_upstream(), 0.0, Orientation.FORWARD, gas)
    with pytest.raises(ValueError, match="z_max"):
        shock_from_strength(_upstream(), gas.z_max * 1.01, Orientation.FORWARD, gas)
    # strength that pushes the back pressure through the ceiling
    tight = make_gas(
        1.4, PhaseBounds(rho_min=0.05, rho_max=20.0, p_min=0.5, p_max=1.5,
                         speed_max=15.0, e_min=1e-4)
    )
    with pytest.raises(ValueError, match="phase space"):
        shock_from_strength(_upstream(), 0.9, Orientation.FORWARD, tight)


@pytest.mark.parametrize("orient", list(Orientation))
def test_shock_side_phase_messages(gas, orient):
    # p_back = 1 + z = 26 passes p_max = 20; every other bound holds
    with pytest.raises(ValueError) as exc:
        shock_from_strength(_upstream(), 25.0, orient, gas)
    assert str(exc.value) == "downstream state leaves phase space: pressure above ceiling"
    # with both sides out of the box the upstream side is named
    with pytest.raises(ValueError) as exc:
        shock_from_strength(_upstream(L=16.0), 25.0, orient, gas)
    assert str(exc.value) == "upstream state leaves phase space: speed above ceiling"


def test_replaced_solution_reads_its_own_sides(gas):
    sol = shock_from_strength(_upstream(), 0.8, Orientation.FORWARD, gas)
    assert (sol.left_state(), sol.right_state()) == (sol.downstream, sol.upstream)
    swapped = sol._replace(
        upstream=sol.downstream, downstream=sol.upstream, mass_flux=-sol.mass_flux
    )
    assert swapped.left_state() == sol.upstream != sol.left_state()
    assert swapped.right_state() == sol.downstream != sol.right_state()
    # a solution holds its fields only: no cached sides, no instance dict
    assert list(sol._fields) == [
        "theta", "orientation", "upstream", "downstream", "z", "mass_flux",
    ]
    copy = sol._replace()
    assert copy == sol and hash(copy) == hash(sol)
    assert not hasattr(copy, "__dict__")


strengths = st.floats(1e-4, 50.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200)
@given(
    z=strengths,
    rho=st.floats(0.2, 5.0, allow_nan=False, allow_infinity=False),
    p=st.floats(0.2, 5.0, allow_nan=False, allow_infinity=False),
    L=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    theta=st.floats(0.0, 6.2, allow_nan=False, allow_infinity=False),
    forward=st.booleans(),
)
def test_constructed_shock_satisfies_jump_conditions(z, rho, p, L, theta, forward):
    big = make_gas(
        1.4, PhaseBounds(rho_min=1e-3, rho_max=1e3, p_min=1e-3, p_max=1e3,
                         speed_max=1e3, e_min=1e-9)
    )
    orient = Orientation.FORWARD if forward else Orientation.BACKWARD
    up = PolarState(theta=theta, N=0.0, L=L, rho=rho, p=p)
    sol = shock_from_strength(up, z, orient, big)
    res = rh_residual(
        sol.left_state().to_primitive(), sol.right_state().to_primitive(), theta, big
    )
    scale = max(1.0, abs(sol.mass_flux), sol.downstream.p)
    assert max(abs(r) for r in res) <= 1e-9 * scale
    # Hugoniot vanishes on the connected pair
    H = _hugoniot(
        1.0 / sol.downstream.rho, sol.downstream.p,
        1.0 / sol.upstream.rho, sol.upstream.p, big,
    )
    assert abs(H) <= 1e-10 * max(1.0, sol.downstream.p / sol.downstream.rho)
    rep = check_admissibility(sol, big)
    assert rep.ok, rep.first_failure()


def test_hugoniot_nonzero_off_curve(gas):
    # doubling the density at equal pressure is not a shock pairing
    assert abs(_hugoniot(0.5, 1.0, 1.0, 1.0, gas)) > 0.1


@given(z=strengths)
def test_strength_inversions_round_trip(z):
    mf = math.sqrt(1.0 + z * 2.4 / 2.8)
    assert strength_from_normal_mach(mf, 1.4, "front") == pytest.approx(
        z, rel=1e-10, abs=1e-12
    )
    mb = downstream_normal_mach(z, 1.4)
    assert strength_from_normal_mach(mb, 1.4, "back") == pytest.approx(
        z, rel=1e-9, abs=1e-12
    )


def test_inversion_domains():
    with pytest.raises(ValueError, match="supersonic"):
        strength_from_normal_mach(0.99, 1.4, "front")
    with pytest.raises(ValueError, match="subsonic"):
        strength_from_normal_mach(1.01, 1.4, "back")
    # the back normal Mach can never reach sqrt((gamma-1)/(2 gamma))
    with pytest.raises(ValueError, match="subsonic"):
        strength_from_normal_mach(math.sqrt(0.4 / 2.8) * 0.999, 1.4, "back")


def test_downstream_normal_mach_limits():
    assert downstream_normal_mach(1e-12, 1.4) == pytest.approx(1.0, abs=1e-9)
    assert downstream_normal_mach(1e12, 1.4) == pytest.approx(
        math.sqrt(0.4 / 2.8), rel=1e-6
    )
    zs = [0.1 * k for k in range(1, 60)]
    vals = [downstream_normal_mach(z, 1.4) for z in zs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_entropy_rises_with_strength(gas):
    sols = [
        shock_from_strength(_upstream(), z, Orientation.FORWARD, gas)
        for z in (0.2, 0.5, 1.0, 2.0)
    ]
    s = [x.downstream.p / x.downstream.rho ** 1.4 for x in sols]
    assert all(a < b for a, b in zip(s, s[1:]))
    assert s[0] > 1.0  # upstream indicator is exactly 1 here


# ---------------------------------------------------------------- classify


def test_classify_not_a_jump(gas):
    a = PrimitiveState(rho=1.0, u=1.0, v=0.5, p=1.0)
    assert classify_discontinuity(a, a, 0.3, gas).kind is DiscontinuityKind.NOT_A_JUMP


def test_classify_contact(gas):
    theta = 0.9
    # both states with N = 0, same pressure, different density and L
    from sectorflow.polar import from_polar

    ul, vl = from_polar(0.0, 1.0, theta)
    ur, vr = from_polar(0.0, -2.0, theta)
    left = PrimitiveState(rho=1.0, u=ul, v=vl, p=2.0)
    right = PrimitiveState(rho=3.0, u=ur, v=vr, p=2.0)
    assert classify_discontinuity(left, right, theta, gas).kind is DiscontinuityKind.CONTACT

    bad = PrimitiveState(rho=3.0, u=ur, v=vr, p=2.5)
    out = classify_discontinuity(left, bad, theta, gas)
    assert out.kind is DiscontinuityKind.INADMISSIBLE
    assert "pressure" in out.reason


def test_classify_recovers_forward_shock(gas):
    sol = shock_from_strength(_upstream(), 0.8, Orientation.FORWARD, gas)
    out = classify_discontinuity(
        sol.left_state().to_primitive(), sol.right_state().to_primitive(), 1.0, gas
    )
    assert out.kind is DiscontinuityKind.FORWARD_SHOCK
    assert out.shock.z == pytest.approx(0.8, rel=1e-12)
    assert out.shock.mass_flux == pytest.approx(sol.mass_flux, rel=1e-12)


def test_classify_recovers_backward_shock(gas):
    sol = shock_from_strength(_upstream(), 1.3, Orientation.BACKWARD, gas)
    out = classify_discontinuity(
        sol.left_state().to_primitive(), sol.right_state().to_primitive(), 1.0, gas
    )
    assert out.kind is DiscontinuityKind.BACKWARD_SHOCK
    assert out.shock.z == pytest.approx(1.3, rel=1e-12)


def test_classify_rejects_expansion_jump(gas):
    # swap the sides of a valid shock: same jump conditions, entropy drops
    sol = shock_from_strength(_upstream(), 0.8, Orientation.FORWARD, gas)
    out = classify_discontinuity(
        sol.right_state().to_primitive(), sol.left_state().to_primitive(), 1.0, gas
    )
    assert out.kind is DiscontinuityKind.INADMISSIBLE
    assert "entropy" in out.reason or "lax" in out.reason


def test_classify_rejects_flux_mismatch(gas):
    sol = shock_from_strength(_upstream(), 0.8, Orientation.FORWARD, gas)
    left = sol.left_state().to_primitive()
    right = sol.right_state().to_primitive()
    broken = PrimitiveState(rho=right.rho * 1.05, u=right.u, v=right.v, p=right.p)
    out = classify_discontinuity(left, broken, 1.0, gas)
    assert out.kind is DiscontinuityKind.INADMISSIBLE
    assert "flux" in out.reason


def test_classify_rejects_normal_sign_change(gas):
    from sectorflow.polar import from_polar

    theta = 0.4
    ul, vl = from_polar(1.0, 0.0, theta)
    ur, vr = from_polar(-1.0, 0.0, theta)
    left = PrimitiveState(rho=1.0, u=ul, v=vl, p=1.0)
    right = PrimitiveState(rho=1.0, u=ur, v=vr, p=1.0)
    out = classify_discontinuity(left, right, theta, gas)
    assert out.kind is DiscontinuityKind.INADMISSIBLE


def test_classify_contact_bounds_scale_with_the_left_state(gas):
    # |N| <= 1e-9 max(|V|, c) of the left state and |dp| <= 1e-12 max(1, p_left)
    from sectorflow.polar import from_polar

    theta, L = 0.9, 3.0
    left = PrimitiveState(1.0, *from_polar(0.0, L, theta), 2.0)
    n_zero = 1e-9 * max(L, left.sound_speed(gas))

    def right(N, p=2.0):
        return PrimitiveState(3.0, *from_polar(N, -L, theta), p)

    assert classify_discontinuity(left, right(0.5 * n_zero), theta, gas).kind is DiscontinuityKind.CONTACT
    assert classify_discontinuity(left, right(2.0 * n_zero), theta, gas).kind is not DiscontinuityKind.CONTACT
    assert classify_discontinuity(left, right(0.0, 2.0 + 1.5e-12), theta, gas).kind is DiscontinuityKind.CONTACT
    out = classify_discontinuity(left, right(0.0, 2.0 + 3e-12), theta, gas)
    assert (out.kind, out.reason) == (DiscontinuityKind.INADMISSIBLE, "pressure jumps across a contact")


def test_classify_gives_the_kind_and_leaves_the_margins_to_check_admissibility(gas):
    # a shock stronger than this box admits still satisfies the jump
    # conditions: classify names its kind, check_admissibility fails it
    wide = make_gas(1.4, gas.bounds._replace(p_max=1e3, speed_max=100.0))
    z = 2.0 * gas.z_max
    sol = shock_from_strength(_upstream(), z, Orientation.BACKWARD, wide)
    left, right = sol.left_state().to_primitive(), sol.right_state().to_primitive()
    out = classify_discontinuity(left, right, 1.0, gas)
    assert out.kind is DiscontinuityKind.BACKWARD_SHOCK and out.reason is None
    assert out.shock.z == pytest.approx(z, rel=1e-12)
    assert check_admissibility(out.shock, gas).first_failure() == "strength window"


def test_admissibility_margins_and_floor(gas):
    sol = shock_from_strength(_upstream(), 0.8, Orientation.FORWARD, gas)
    rep = check_admissibility(sol, gas)
    assert rep.ok
    names = [n for n, _, _ in rep.checks]
    assert "compressive" in names and "entropy flux sign" in names
    assert rep.margin("lax upstream") > 0.0
    assert rep.margin("lax downstream") > 0.0
    assert normal_floor(gas) == pytest.approx(gas.c_min * 0.05 / 20.0, rel=1e-15)
    with pytest.raises(KeyError):
        rep.margin("no such check")


def test_admissibility_catches_swapped_sides(gas):
    sol = shock_from_strength(_upstream(), 0.8, Orientation.FORWARD, gas)
    fake = type(sol)(
        theta=sol.theta,
        orientation=sol.orientation,
        upstream=sol.downstream,
        downstream=sol.upstream,
        z=-sol.z / (1.0 + sol.z),
        mass_flux=sol.mass_flux,
    )
    rep = check_admissibility(fake, gas)
    assert not rep.ok
    assert rep.first_failure() in ("compressive", "entropy rises")


# ---------------------------------------------------------- oblique branch


def test_deflection_oracle(gas):
    # gamma = 1.4, M = 2, shock angle 60 degrees
    assert deflection_angle(2.0, math.pi / 3.0, gas) == pytest.approx(
        0.39114417713625804, rel=1e-13
    )


def test_deflection_endpoints(gas):
    assert deflection_angle(2.0, math.asin(0.5), gas) == pytest.approx(0.0, abs=1e-12)
    assert deflection_angle(2.0, math.pi / 2.0, gas) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        deflection_angle(0.8, 1.0, gas)
    with pytest.raises(ValueError):
        deflection_angle(2.0, 0.3, gas)


def test_max_deflection_oracle(gas):
    # classic value at M = 3: about 34.073 degrees
    assert max_deflection(3.0, gas) == pytest.approx(0.5946937115643225, rel=1e-9)


def test_detachment_oracle(gas):
    # gamma = 1.4, M = 2: sin^2 b* = (1.4 + sqrt(10.08)) / 5.6 by hand,
    # about 64.6689798 deg; the turning there is about 22.9735318 deg
    # (both confirmed to 30 digits as the zero of d(alpha)/d(b))
    assert math.degrees(detachment_shock_angle(2.0, gas)) == pytest.approx(
        64.66897983057951, rel=1e-9
    )
    assert math.degrees(max_deflection(2.0, gas)) == pytest.approx(
        22.97353176093794, rel=1e-9
    )


@pytest.mark.parametrize("gamma", [1.12, 1.4, 5.0 / 3.0])
@pytest.mark.parametrize("mach", [1.05, 1.5, 2.0, 3.0, 8.0, 40.0])
def test_detachment_angle_is_the_maximum(gas, gamma, mach):
    g = make_gas(gamma, gas.bounds)
    peak = detachment_shock_angle(mach, g)
    top = deflection_angle(mach, peak, g)
    assert top == max_deflection(mach, g)
    assert deflection_angle(mach, peak - 1e-6, g) < top
    assert deflection_angle(mach, peak + 1e-6, g) < top


def test_max_deflection_monotone_and_limited(gas):
    machs = [1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0]
    vals = [max_deflection(m, gas) for m in machs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    limit = max_deflection_limit(gas)
    assert all(v < limit for v in vals)
    assert max_deflection(1e6, gas) == pytest.approx(limit, abs=1e-8)


def test_max_deflection_reaches_its_limit_where_m_squared_overflows():
    # M^2 = 1e308 is finite but M^2 (gamma + cos 2b) is not
    g = make_gas(1.02, PhaseBounds(0.05, 20.0, 0.05, 20.0, 15.0, 1e-3))
    limit = max_deflection_limit(g)
    for mach in (1e154, 1e160):
        assert max_deflection(mach, g) == pytest.approx(limit, abs=1e-15)
        with pytest.raises(DetachedShockError):
            solve_shock_angle(mach, 1.5, "weak", g)


def test_limit_values(gas, gas_heavy):
    assert max_deflection_limit(gas) == pytest.approx(math.asin(1.0 / 1.4), rel=1e-15)
    assert max_deflection_limit(gas_heavy) == pytest.approx(math.pi / 3.0, rel=1e-12)


@settings(max_examples=120)
@given(
    mach=st.floats(1.05, 40.0, allow_nan=False, allow_infinity=False),
    frac=st.floats(0.02, 0.98, allow_nan=False, allow_infinity=False),
    weak=st.booleans(),
)
def test_solve_shock_angle_round_trip(mach, frac, weak):
    g = make_gas(
        1.4, PhaseBounds(rho_min=0.05, rho_max=20.0, p_min=0.05, p_max=20.0,
                         speed_max=15.0, e_min=1e-3)
    )
    alpha = frac * max_deflection(mach, g)
    branch = "weak" if weak else "strong"
    t = solve_shock_angle(mach, alpha, branch, g)
    assert deflection_angle(mach, t, g) == pytest.approx(alpha, abs=1e-10)
    # weak sits below the peak, strong above
    other = solve_shock_angle(mach, alpha, "strong" if weak else "weak", g)
    if weak:
        assert t <= other + 1e-12
    else:
        assert t >= other - 1e-12


def test_solve_shock_angle_detached(gas):
    top = max_deflection(2.0, gas)
    with pytest.raises(ValueError, match="detached"):
        solve_shock_angle(2.0, top + 1e-3, "weak", gas)


def test_only_the_detached_regime_raises_detached_shock_error(gas):
    top = max_deflection(2.0, gas)
    with pytest.raises(DetachedShockError):
        solve_shock_angle(2.0, top + 1e-3, "strong", gas)
    for mach, alpha, branch in ((0.5, 0.1, "weak"), (2.0, -0.1, "weak"), (2.0, 0.1, "both")):
        with pytest.raises(ValueError) as info:
            solve_shock_angle(mach, alpha, branch, gas)
        assert not isinstance(info.value, DetachedShockError)


def test_solve_shock_angle_zero_deflection(gas):
    assert solve_shock_angle(2.0, 0.0, "weak", gas) == pytest.approx(math.asin(0.5))
    assert solve_shock_angle(2.0, 0.0, "strong", gas) == pytest.approx(math.pi / 2.0)


@pytest.mark.parametrize("mach", [1.05, 2.0, 20.0])
@pytest.mark.parametrize("alpha", [1e-300, 1e-17])
def test_strong_branch_at_tiny_deflection_is_near_normal(gas, mach, alpha):
    # deflection_angle(M, pi/2) is about 1e-16 in floats, so the strong
    # branch must not collapse onto the detachment angle below that
    strong = solve_shock_angle(mach, alpha, "strong", gas)
    assert strong > detachment_shock_angle(mach, gas)
    assert abs(deflection_angle(mach, strong, gas) - alpha) <= 2e-14


SHARE_BANDS = {
    "interior": (0.05, 0.95),
    "near the fold": (0.95, 0.999999),
    "at the fold": (0.999999, 1.0 - 1e-14),
    "tiny": None,  # alpha log-uniform on [1e-300, 1e-6]
}


@pytest.mark.parametrize("band", SHARE_BANDS)
def test_solve_shock_angle_misses_by_rounding_in_every_band(band):
    rng = random.Random(1135)
    bounds = PhaseBounds(rho_min=1e-6, rho_max=1e6, p_min=1e-6, p_max=1e6,
                         speed_max=1e6, e_min=1e-12)
    machs = [math.exp(rng.uniform(math.log(1.0001), math.log(1e6))) for _ in range(8000)]
    for mach in machs + [1.0 + 1e-7, 1e150]:
        g = make_gas(rng.uniform(1.02, 3.0), bounds)
        top = max_deflection(mach, g)
        if SHARE_BANDS[band] is None:
            alpha = math.exp(rng.uniform(math.log(1e-300), math.log(1e-6)))
        else:
            alpha = rng.uniform(*SHARE_BANDS[band]) * top
        alpha = min(alpha, top)  # near M = 1 the whole attached range is tiny
        peak = detachment_shock_angle(mach, g)
        weak = solve_shock_angle(mach, alpha, "weak", g)
        strong = solve_shock_angle(mach, alpha, "strong", g)
        for beta in (weak, strong):
            assert abs(deflection_angle(mach, beta, g) - alpha) <= 2e-14, (mach, g.gamma, alpha)
        assert weak <= peak <= strong
        assert solve_shock_angle(mach, top, "weak", g) == peak
        assert solve_shock_angle(mach, top, "strong", g) == peak
        assert solve_shock_angle(mach, 0.0, "weak", g) == math.asin(1.0 / mach)
        assert solve_shock_angle(mach, 0.0, "strong", g) == 0.5 * math.pi


# ------------------------------------------------------------ root finder


def test_brentq_converges_to_xtol():
    r = brentq(lambda x: math.cos(x) - x, 0.0, 1.0, xtol=1e-14)
    assert abs(r - 0.7390851332151607) <= 1e-14 + 8.9e-16 * r
    r = brentq(lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, xtol=1e-12)
    assert abs(r - 2.0945514815423265) <= 1e-12 + 8.9e-16 * r


def test_brentq_returns_exact_endpoint_zero():
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.25

    assert brentq(f, 0.25, 3.0, xtol=1e-12) == 0.25
    assert brentq(f, -1.0, 0.25, xtol=1e-12) == 0.25
    assert len(calls) == 4


def test_brentq_needs_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)


def test_brentq_gives_up_after_maxiter(monkeypatch):
    monkeypatch.setattr(shock, "_BRENT_MAXITER", 1)
    with pytest.raises(RuntimeError):
        brentq(lambda x: math.tanh(50.0 * (x - 0.123)), -3.0, 4.0, xtol=1e-14)


def test_lax_neighborhood_bound_positive(gas, gas_heavy):
    for g in (gas, gas_heavy):
        d = lax_neighborhood_bound(g)
        assert 0.0 < d < 1.0
