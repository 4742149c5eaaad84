import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectorflow import flowfield, gas as gas_module, verify
from sectorflow.cli import (
    analyze_to_document,
    export_csv,
    export_json,
    export_svg,
    parse_config,
)
from sectorflow.gas import (
    PhaseBounds,
    PrimitiveState,
    make_gas,
    primitive_to_conserved,
    relative_gap,
)
from sectorflow.polar import TWO_PI, PolarState, from_polar, to_polar, wrap_signed
from sectorflow.pmwave import fan_end, integrate_pm
from sectorflow.shock import Orientation, lax_neighborhood_bound
from sectorflow.flowfield import (
    ClosureError,
    ConstantPiece,
    ContactEvent,
    ContactPoint,
    FlowDescription,
    FlowField,
    PMEvent,
    PMPiece,
    ShockEvent,
    ShockPoint,
    Shooting,
    build_flow,
    bv_decompose,
    evaluate,
    sector_decompose,
    shock_separation_floor,
)
from sectorflow.verify import evaluate_many, full_audit, validate_structure

from test_pmwave import L_zero_angle

# ----------------------------------------------------------- golden flows
#
# Two-sector flow, gamma = 1.4 (the conftest box). Anchored just past the
# forward sector's exit contact; seven events around the circle, closure
# shot on the backward wave's end angle. All the numbers below were
# produced by this build and frozen; they pin the construction against
# regressions, not against an outside reference.
TWO_SECTOR_THETA2 = 6.0
TWO_SECTOR_SHOT_END = 0.505661201964
TWO_SECTOR_BALANCE_Z = 0.307284938873
TWO_SECTOR_SHOCKS = (
    (Orientation.BACKWARD, 1.949075531814, 0.6),
    (Orientation.FORWARD, 3.836574559128, 0.2),
    (Orientation.FORWARD, 5.167044772500, TWO_SECTOR_BALANCE_Z),
)
TWO_SECTOR_CONTACTS = (2.752780885458, 6.0)
TWO_SECTOR_WAVE_B = (0.389061149854, 0.505661201964)
# the backward wave's start, where the anchor state has N = -c exactly
TWO_SECTOR_SONIC_START = 0.3890611498540748
# that start moved by 1e-7 c / |L|: off sonic by a relative 1e-7 in N
OFF_SONIC_START = 0.38906122944579313
TWO_SECTOR_WAVE_F = (4.849357381270, 5.052640204563)
TWO_SECTOR_BARS = {"forward": 4.2718039649, "backward": 7.6274664191}
TWO_SECTOR_TV_JUMP = 5.189935890709
TWO_SECTOR_TV_LIP = 1.128286341964

# Three-sector flow, gamma = 1.12 < 2/sqrt(3): three shocks (one per
# sector, each in the L>0 region where the turn is negative), three
# contacts, no smooth waves. Pressure walks P0 -> P0/(1+z1) -> back up
# across the backward shock -> P0 via the balance shock; closure is shot
# on the backward strength.
THREE_SECTOR_BOUNDS = PhaseBounds(
    rho_min=0.01, rho_max=40.0, p_min=0.001, p_max=300.0, speed_max=30.0, e_min=1e-5
)
THREE_SECTOR_SHOT_ZB = 32096.288585656
THREE_SECTOR_BALANCE_Z = 158.688002914
THREE_SECTOR_SHOCKS = (
    (Orientation.FORWARD, 0.060237074592, 200.0),
    (Orientation.BACKWARD, 3.927256305264, THREE_SECTOR_SHOT_ZB),
    (Orientation.FORWARD, 4.253832408982, THREE_SECTOR_BALANCE_Z),
)
THREE_SECTOR_CONTACTS = (1.874020648870, 4.034978190062, 6.1)
THREE_SECTOR_TV_JUMP = 3496.518326026


def two_sector_description():
    u0, v0 = from_polar(0.0, -1.9, TWO_SECTOR_THETA2)
    anchor = PrimitiveState(rho=1.0, u=u0, v=v0, p=1.0)
    events = (
        PMEvent(orientation=Orientation.BACKWARD, theta_end=0.5),
        ShockEvent(orientation=Orientation.BACKWARD, z=0.6, L_sign=1.0),
        ContactEvent(rho=0.8, L=1.9),
        ShockEvent(orientation=Orientation.FORWARD, z=0.2),
        PMEvent(orientation=Orientation.FORWARD, theta_end=5.0526402045633389),
        ShockEvent(orientation=Orientation.FORWARD, balance=True),
        ContactEvent(rho=1.0, L=-1.9),
    )
    shooting = Shooting(event_index=0, field="theta_end", bracket=(0.41, 0.57))
    return FlowDescription(0.0, anchor, events, shooting)


def three_sector_description():
    u0, v0 = from_polar(0.0, 1.060, 6.1)
    anchor = PrimitiveState(rho=1.0, u=u0, v=v0, p=1.0)
    events = (
        ShockEvent(orientation=Orientation.FORWARD, z=200.0),
        ContactEvent(rho=0.5, L=-20.77),
        ShockEvent(orientation=Orientation.BACKWARD, z=34000.0, L_sign=1.0),
        ContactEvent(rho=25.0, L=3.005),
        ShockEvent(orientation=Orientation.FORWARD, balance=True),
        ContactEvent(rho=1.0, L=1.060),
    )
    shooting = Shooting(event_index=2, field="z", bracket=(28000.0, 45000.0))
    return FlowDescription(0.0, anchor, events, shooting)


@pytest.fixture(scope="module")
def gas14():
    bounds = PhaseBounds(
        rho_min=0.05, rho_max=20.0, p_min=0.05, p_max=20.0, speed_max=15.0, e_min=1e-3
    )
    return make_gas(1.4, bounds)


@pytest.fixture(scope="module")
def gas112():
    return make_gas(1.12, THREE_SECTOR_BOUNDS)


@pytest.fixture(scope="module")
def two_sector(gas14):
    return build_flow(gas14, two_sector_description())


@pytest.fixture(scope="module")
def three_sector(gas112):
    return build_flow(gas112, three_sector_description())


def uniform_flow(gas, rho=1.0, speed=2.0, phi=1.1, p=1.0):
    anchor = PrimitiveState(
        rho=rho, u=speed * math.cos(phi), v=speed * math.sin(phi), p=p
    )
    return build_flow(gas, FlowDescription(0.0, anchor, ()))


def conserved_at(flow, theta):
    return primitive_to_conserved(evaluate(flow, theta), flow.gas)


def _limits(flow, point):
    """A jump's (left, right) sides: the flow's limits, which is all a flow keeps of them."""
    return flowfield._jump_limits(flow, point.theta)


def _strength(flow, shock):
    """A shock's strength z = (p_back - p_front) / p_front, from the flow's limits."""
    left, right = _limits(flow, shock)
    front, back = (right, left) if shock.orientation is Orientation.FORWARD else (left, right)
    return (back.p - front.p) / front.p


def assert_L_vanishes_at_theta_bar(flow, sectors):
    for s in sectors:
        state = evaluate(flow, s.theta_bar)
        _, L = to_polar(state.u, state.v, s.theta_bar)
        assert abs(L) <= 1e-14 * max(1.0, math.hypot(state.u, state.v))


# ----------------------------------------------------------- uniform flow


def test_uniform_flow_builds_and_decomposes(gas14):
    flow = uniform_flow(gas14)
    assert len(flow.interval_pieces) == 1
    secs = sector_decompose(flow)
    assert len(secs) == 2
    # boundaries sit at the two zeros of N, the flow angle and its antipode
    angles = sorted(s.theta_start % TWO_PI for s in secs)
    assert angles[0] == pytest.approx(1.1, abs=1e-12)
    assert angles[1] == pytest.approx(1.1 + math.pi, abs=1e-12)
    assert {s.direction for s in secs} == {
        Orientation.FORWARD,
        Orientation.BACKWARD,
    }
    assert_L_vanishes_at_theta_bar(flow, secs)
    assert validate_structure(flow).ok


def test_uniform_flow_has_no_jump_part(gas14):
    bv = bv_decompose(uniform_flow(gas14), samples=64)
    assert bv.total_variation == 0.0
    assert bv.tv_lipschitz == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    phi=st.floats(0.0, TWO_PI),
    speed=st.floats(0.5, 10.0),
    rho=st.floats(0.2, 5.0),
)
def test_uniform_flow_sectors_property(phi, speed, rho):
    bounds = PhaseBounds(
        rho_min=0.05, rho_max=20.0, p_min=0.05, p_max=20.0, speed_max=15.0, e_min=1e-3
    )
    gas = make_gas(1.4, bounds)
    flow = uniform_flow(gas, rho=rho, speed=speed, phi=phi)
    secs = sector_decompose(flow)
    assert len(secs) == 2
    for s in secs:
        # theta_bar is where L vanishes: a quarter turn past the N zero
        width = s.theta_end - s.theta_start
        assert width == pytest.approx(math.pi, abs=1e-9)
        assert s.theta_bar - s.theta_start == pytest.approx(math.pi / 2, abs=1e-6)


# ------------------------------------------------------ description errors


def test_constant_piece_rejects_empty_interval(gas14):
    state = PrimitiveState(rho=1.0, u=1.0, v=0.0, p=1.0)
    with pytest.raises(ValueError, match="nonempty interval"):
        ConstantPiece(theta_start=1.0, theta_end=1.0, state=state)


def test_shock_event_needs_one_mode():
    with pytest.raises(ValueError, match="exactly one of theta, z, balance"):
        ShockEvent(orientation=Orientation.FORWARD, theta=1.0, z=0.5)
    with pytest.raises(ValueError, match="exactly one of theta, z, balance"):
        ShockEvent(orientation=Orientation.FORWARD)


def test_trivial_contact_rejected(gas14):
    # the first N zero above the anchor is the one where L comes back
    # positive; declaring the same rho and L jumps nothing
    u0, v0 = from_polar(0.0, -1.9, TWO_SECTOR_THETA2)
    anchor = PrimitiveState(rho=1.0, u=u0, v=v0, p=1.0)
    desc = FlowDescription(0.0, anchor, (ContactEvent(rho=1.0, L=1.9),))
    with pytest.raises(ValueError, match="trivial contact"):
        build_flow(gas14, desc)


def test_unclosed_description_raises(gas14):
    # drop the shooting and leave the backward wave too short: the state
    # that comes back around no longer matches the anchor
    desc = two_sector_description()
    events = list(desc.events)
    events[0] = events[0]._replace(theta_end=0.45)
    bad = FlowDescription(0.0, desc.anchor_state, tuple(events))
    with pytest.raises(ClosureError, match="does not close up around the circle"):
        build_flow(gas14, bad)


def test_shooting_without_sign_change_raises(gas14):
    desc = two_sector_description()
    narrow = desc._replace(shooting=Shooting(0, "theta_end", (0.41, 0.43)))
    with pytest.raises(ClosureError, match="no sign change"):
        build_flow(gas14, narrow)


# ------------------------------------------------------- closure shooting


def _scaled_two_sector(steps=None, scale=1.0):
    doc = json.loads((CONFIGS / "two_sector.json").read_text())
    for piece in doc["pieces"]:
        if piece["kind"] == "wave" and steps is not None:
            piece["steps"] = steps
    doc["anchor"]["u"] *= scale
    doc["anchor"]["v"] *= scale
    return parse_config(json.dumps(doc))


def _shooting_outcome(cfg):
    """Every candidate root (as hex), or the scan's ClosureError message."""
    try:
        roots = flowfield._shooting_roots(cfg.gas, cfg.description)
    except ClosureError as e:
        return str(e)
    return [root().hex() for root in roots]


@pytest.mark.parametrize("steps", [1, 2, 4, 16, 40, 64, 96])
def test_exact_scan_gives_the_rk4_scan_roots(monkeypatch, steps):
    """The closed-form scan picks the cells an RK4 scan picks: same roots, bit for bit."""
    for scale in (0.96, 1.0, 1.04):
        cfg = _scaled_two_sector(steps, scale)
        got = _shooting_outcome(cfg)
        with monkeypatch.context() as m:
            m.setattr(flowfield, "_exact_wave", flowfield._rk4_wave)
            want = _shooting_outcome(cfg)
        assert got == want, (steps, scale)
        assert isinstance(got, list) and len(got) == 1


@pytest.mark.parametrize("steps", [4, 64])
def test_exact_scan_reports_the_rk4_failures(monkeypatch, steps):
    """Past 0.8 the first wave's L turns or a later constant misses its shock."""
    cfg = _scaled_two_sector(steps)
    desc = cfg.description._replace(shooting=Shooting(0, "theta_end", (0.8, 2.0)))
    cfg = cfg._replace(description=desc)
    got = _shooting_outcome(cfg)
    with monkeypatch.context() as m:
        m.setattr(flowfield, "_exact_wave", flowfield._rk4_wave)
        assert _shooting_outcome(cfg) == got
    assert "x piece 0: tangential velocity changes sign inside the wave" in got
    assert "x piece 3: constant state ... never reaches the required normal velocity" in got


def test_two_sector_build_marches_few_rk4_waves(monkeypatch):
    """RK4 runs only inside Brent and the closing march, counted at flowfield's name."""
    calls = []
    rk4 = flowfield.integrate_pm

    def counted(*args, **kwargs):
        calls.append(args)
        return rk4(*args, **kwargs)

    monkeypatch.setattr(flowfield, "integrate_pm", counted)
    cfg = _scaled_two_sector()
    build_flow(cfg.gas, cfg.description)
    assert 0 < len(calls) <= 16


@pytest.mark.parametrize("name", ["two_sector", "three_sector_g112"])
def test_the_closing_march_lays_the_scan_marchs_floats(name):
    """Kept shocks go through shock_from_strength, scanned ones through shock_sides: same bits."""
    cfg = parse_config((CONFIGS / (name + ".json")).read_text())
    desc = flowfield._with_param(cfg.description, SHIPPED_ROOTS[name][0])
    pieces, _ = flowfield._march(cfg.gas, desc, keep=True)
    # the state after each event, from an unkept march of the events up to it
    after = [
        flowfield._march(cfg.gas, desc._replace(events=desc.events[: k + 1]))[1]
        for k in range(len(desc.events))
    ]
    kept = [p.state for p in pieces if isinstance(p, ConstantPiece)]
    assert [repr(tuple(s)) for s in kept] == [repr(tuple(s)) for s in (desc.anchor_state, *after)]


def test_two_sector_build_converts_and_checks_each_shock_side_once(monkeypatch):
    """Phase checks and polar-to-primitive conversions of one build, then of its audit."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        gas_module, "in_phase_space", counted("in_phase_space", gas_module.in_phase_space)
    )
    monkeypatch.setattr(
        gas_module, "inside_box", counted("inside_box", gas_module.inside_box)
    )
    monkeypatch.setattr(
        PolarState, "to_primitive", counted("to_primitive", PolarState.to_primitive)
    )
    for name in ("_march", "shock_sides", "shock_from_strength"):
        monkeypatch.setattr(flowfield, name, counted(name, getattr(flowfield, name)))
    cfg = _scaled_two_sector()
    flow = build_flow(cfg.gas, cfg.description)
    assert counts["_march"] == 71
    # every march resolves its 3 shocks once: the 70 scan and root-finder
    # marches on floats, the closing one through shock_from_strength, whose
    # two sides it converts and keeps no record of
    assert counts["shock_sides"] == 210
    assert counts["shock_from_strength"] == 3
    assert counts["to_primitive"] == 6
    # every phase check: the anchor (1), two per resolved shock (2 x 213 =
    # 426), one per contact (2 x 71 = 142), the ends of 130 closed-form waves
    # (130) and the start and 3 nodes of 12 RK4 ones (48); 753 before, when
    # each of the 3 kept shocks was resolved a second time for its record
    assert counts["inside_box"] == 747
    # every state passes the float box test, so none is checked as a state object
    assert counts["in_phase_space"] == 0

    counts.clear()
    export_json(full_audit(flow))
    export_csv(flow, cfg.samples)
    export_svg(flow)
    analyze_to_document(flow, cfg.samples)
    assert counts["to_primitive"] == 0  # the audit reads a jump's sides from evaluate


SHIPPED_ROOTS = {
    "two_sector": [0.5056612019615194],
    "three_sector_g112": [32096.288585655948, 40450.404255920206],
}


@pytest.mark.parametrize("name", sorted(SHIPPED_ROOTS))
def test_shipped_shooting_roots_are_pinned(name):
    cfg = parse_config((CONFIGS / (name + ".json")).read_text())
    assert _shooting_outcome(cfg) == [x.hex() for x in SHIPPED_ROOTS[name]]


@pytest.mark.parametrize(
    "name, steps",
    [
        ("two_sector", 1),
        ("two_sector", 16),
        ("two_sector", 64),
        ("three_sector_g112", None),
        ("three_sector_g14", None),
        ("off_sonic_start", None),
    ],
)
def test_march_keeping_pieces_ends_where_one_keeping_none_does(name, steps):
    """At every scan point, with either wave march: the same final bits or the same error."""
    if name == "two_sector":
        cfg = _scaled_two_sector(steps)
    elif name == "off_sonic_start":
        cfg = _edited_two_sector(_put(0, theta_start=OFF_SONIC_START))
    else:
        cfg = parse_config((CONFIGS / (name + ".json")).read_text())
    desc = cfg.description
    lo, hi = desc.shooting.bracket

    def outcome(x, march_wave, keep):
        try:
            pieces, final = flowfield._march(
                cfg.gas, flowfield._with_param(desc, x), march_wave, keep=keep
            )
        except ValueError as e:
            return str(e)
        assert (pieces is not None) is keep
        return [c.hex() for c in final]

    for k in range(65):
        x = lo + (hi - lo) * k / 64
        for march_wave in (flowfield._rk4_wave, flowfield._exact_wave):
            assert outcome(x, march_wave, True) == outcome(x, march_wave, False), (x, march_wave)


@pytest.mark.parametrize(
    "orient, anchor",
    [
        (Orientation.BACKWARD, PrimitiveState(rho=1.0, u=7.0, v=0.0, p=1.0)),
        # a forward shock's back side is the marching state, here the
        # anchor, which build_flow and not _march checks
        (Orientation.FORWARD, PrimitiveState(rho=5.0, u=3.0, v=0.0, p=26.0)),
    ],
)
def test_march_reports_the_shock_side_leaving_phase_space(gas14, orient, anchor):
    # z = 25 puts the back pressure at 26 times the front's, past p_max = 20
    desc = FlowDescription(0.0, anchor, (ShockEvent(orientation=orient, z=25.0),))
    for keep in (False, True):
        with pytest.raises(ValueError) as info:
            flowfield._march(gas14, desc, keep=keep)
        assert str(info.value) == (
            "piece 0: downstream state leaves phase space: pressure above ceiling"
        )


def test_scan_stays_near_rk4_on_coarse_wide_waves(monkeypatch):
    """One RK4 step per wave over a wide bracket.

    There the closed form alone misses RK4's mismatch by more than
    _SCAN_RECHECK (5.9e-6 measured), so such waves are marched with RK4 in
    the scan (measured 2.1e-11 from RK4's), and the roots are an RK4
    scan's bit for bit.
    """
    cfg = _scaled_two_sector(1)
    desc = cfg.description._replace(shooting=Shooting(0, "theta_end", (0.2, 1.2)))

    def closed_form(state, a, b, orient, gas, steps):
        return None, fan_end(*state, a, b, orient, gas)

    def mismatch(x, march_wave):
        try:
            _, final = flowfield._march(cfg.gas, flowfield._with_param(desc, x), march_wave)
        except ValueError:
            return None
        return flowfield._angle_mismatch(desc, final)

    scan_gap, closed_form_gap = 0.0, 0.0
    for k in range(65):
        x = 0.2 + k / 64
        rk4 = mismatch(x, flowfield._rk4_wave)
        if rk4 is not None:
            scan_gap = max(scan_gap, abs(mismatch(x, flowfield._exact_wave) - rk4))
            closed_form_gap = max(closed_form_gap, abs(mismatch(x, closed_form) - rk4))
    assert closed_form_gap > flowfield._SCAN_RECHECK
    assert scan_gap <= 1e-8

    for scale in (0.96, 1.0, 1.04):
        cfg = _scaled_two_sector(1, scale)
        cfg = cfg._replace(description=cfg.description._replace(shooting=desc.shooting))
        got = _shooting_outcome(cfg)
        with monkeypatch.context() as m:
            m.setattr(flowfield, "_exact_wave", flowfield._rk4_wave)
            assert _shooting_outcome(cfg) == got, scale
        assert isinstance(got, list) and len(got) == 1


def test_unclosable_scan_counts_its_undefined_points():
    cfg = parse_config((CONFIGS / "three_sector_g14.json").read_text())
    with pytest.raises(ClosureError) as info:
        build_flow(cfg.gas, cfg.description)
    assert str(info.value) == (
        "flow does not close up around the circle (no sign change of the seam "
        "mismatch inside the shooting bracket; undefined at 65 of 65 scan points: "
        "34x piece 2: constant state ... never reaches the required normal velocity, "
        "31x piece 5: contact angle passes the closure seam)"
    )


@pytest.mark.parametrize("name, marches", [("three_sector_g14", 65), ("three_sector_g112", 71)])
def test_wave_free_scan_marches_each_point_once(monkeypatch, name, marches):
    """Without a wave the closed-form and RK4 marches are one, so no point is marched twice."""
    calls = []
    march = flowfield._march
    monkeypatch.setattr(flowfield, "_march", lambda *a, **k: calls.append(a) or march(*a, **k))
    cfg = parse_config((CONFIGS / (name + ".json")).read_text())
    try:
        build_flow(cfg.gas, cfg.description)
    except ClosureError:
        pass
    assert len(calls) == marches


@pytest.mark.parametrize(
    "field, value", [("u", math.nan), ("v", math.nan), ("u", -math.inf), ("rho", math.inf)]
)
def test_nonfinite_anchor_is_named_before_any_march(monkeypatch, field, value):
    calls = []
    march = flowfield._march
    monkeypatch.setattr(flowfield, "_march", lambda *a, **k: calls.append(a) or march(*a, **k))
    cfg = parse_config((CONFIGS / "two_sector.json").read_text())
    desc = cfg.description
    desc = desc._replace(anchor_state=desc.anchor_state._replace(**{field: value}))
    with pytest.raises(ValueError) as info:
        build_flow(cfg.gas, desc)
    assert str(info.value) == "piece -1: anchor state has a non-finite %s (%r)" % (field, value)
    assert calls == []


NO_SIGN_CHANGE = (
    "flow does not close up around the circle "
    "(no sign change of the seam mismatch inside the shooting bracket%s)"
)


def _seam_turned_by(turn, rho=lambda x: 1.0, rk4_turn=None):
    """A _march stand-in: the seam state is the anchor turned by turn(x).

    x is the shot wave end. rk4_turn, when given, is the turn the RK4
    march reports in place of the closed-form one; a turn of None is a
    failed march. The stand-in records each x it marches.
    """
    marched = []

    def march(gas, desc, march_wave=flowfield._rk4_wave, keep=False):
        x = desc.events[0].theta_end
        marched.append(x)
        a = desc.anchor_state
        f = turn if rk4_turn is None or march_wave is flowfield._exact_wave else rk4_turn
        if f(x) is None:
            raise flowfield.MarchError("piece 0: stand-in failure")
        speed, phi = math.hypot(a.u, a.v), math.atan2(a.v, a.u) + f(x)
        final = (rho(x), speed * math.cos(phi), speed * math.sin(phi), a.p)
        theta0 = desc.anchor_theta
        if not keep:
            return None, final
        return [ConstantPiece(theta0, theta0 + TWO_PI, PrimitiveState(*final))], final

    return march, marched


def _shoot_unit_bracket(gas14, monkeypatch, march):
    monkeypatch.setattr(flowfield, "_march", march)
    desc = two_sector_description()._replace(shooting=Shooting(0, "theta_end", (0.0, 1.0)))
    return build_flow(gas14, desc)


def test_shooting_skips_a_wrap_of_the_mismatch(gas14, monkeypatch):
    # the turn passes pi at x = 0.228 (a wrap, not a root) and 2 pi at 0.857
    march, marched = _seam_turned_by(lambda x: wrap_signed(2.0 + 5.0 * x))
    _shoot_unit_bracket(gas14, monkeypatch, march)
    assert marched[-1] == pytest.approx((TWO_PI - 2.0) / 5.0, abs=1e-12)

    march, _ = _seam_turned_by(lambda x: wrap_signed(2.0 + 2.0 * x))
    with pytest.raises(ClosureError) as info:
        _shoot_unit_bracket(gas14, monkeypatch, march)
    assert str(info.value) == NO_SIGN_CHANGE % ""


def test_shooting_moves_on_when_the_first_root_does_not_close(gas14, monkeypatch):
    def turn(x):
        return (x - 0.3) * (x - 0.7)

    # the angle closes at 0.3 and 0.7, the density only at 0.7
    march, marched = _seam_turned_by(turn, rho=lambda x: 1.1 if x < 0.5 else 1.0)
    _shoot_unit_bracket(gas14, monkeypatch, march)
    assert marched[-1] == pytest.approx(0.7, abs=1e-12)

    # RK4 disagrees with the scan about the first cell: the cell is
    # dropped, and the second one is solved
    march, marched = _seam_turned_by(
        turn, rk4_turn=lambda x: (x - 0.7) * (abs(x - 0.3) + 0.01)
    )
    _shoot_unit_bracket(gas14, monkeypatch, march)
    assert marched[-1] == pytest.approx(0.7, abs=1e-12)

    # neither closes: the first root's failure is the one raised
    march, _ = _seam_turned_by(turn, rho=lambda x: 1.0 + x)
    anchor = two_sector_description().anchor_state
    first_gap = relative_gap(anchor._replace(rho=1.3), anchor)
    with pytest.raises(ClosureError) as info:
        _shoot_unit_bracket(gas14, monkeypatch, march)
    assert str(info.value) == (
        "flow does not close up around the circle (residual %.3e after shooting)" % first_gap
    )


def test_shooting_drops_a_cell_where_rk4_fails_at_an_end(gas14, monkeypatch):
    """A cell RK4 cannot mark out is no root: the scan fails as an RK4 scan does."""
    march, marched = _seam_turned_by(
        lambda x: x - 0.3, rk4_turn=lambda x: None if x == 19 / 64 else x - 0.3
    )
    with pytest.raises(ClosureError) as info:
        _shoot_unit_bracket(gas14, monkeypatch, march)
    assert str(info.value) == NO_SIGN_CHANGE % (
        "; undefined at 1 of 65 scan points: 1x piece 0: stand-in failure"
    )
    assert 0.3 not in marched  # Brent never ran


# ------------------------------------------------------- march failures
#
# Each raise site of _march that a shipped flow never reaches, pinned by
# its exact message: build_flow's failure without the solver block, and
# the ClosureError's count of that failure (measured values left out)
# with it, where every one of the 65 scan points fails the same way.


def _failures(gas, desc):
    """str() of build_flow's failure for desc unshot, then for desc as given."""
    messages = []
    for d in (desc._replace(shooting=None), desc):
        with pytest.raises(ValueError if d.shooting is None else ClosureError) as info:
            build_flow(gas, d)
        messages.append(str(info.value))
    return messages


def _swap(i, piece):
    return lambda pieces: pieces.__setitem__(i, piece)


def _put(i, **fields):
    return lambda pieces: pieces[i].update(fields)


def _insert(i, piece):
    return lambda pieces: pieces.insert(i, piece)


def _edited_two_sector(edit, anchor_theta=None):
    """The shipped two_sector config with edit applied to its pieces list."""
    doc = json.loads((CONFIGS / "two_sector.json").read_text())
    edit(doc["pieces"])
    if anchor_theta is not None:
        doc["anchor"]["theta"] = anchor_theta
    return parse_config(json.dumps(doc))


@pytest.mark.parametrize(
    "edit, message, reason",
    [
        (
            _swap(3, {"kind": "shock", "orientation": "forward", "theta": 0.3}),
            "piece 3: event angle does not advance the march",
            "piece 3: event angle does not advance the march",
        ),
        (
            _swap(3, {"kind": "shock", "orientation": "forward", "theta": 3.0}),
            "piece 3: back side of a shock must be subsonic normal",
            "piece 3: back side of a shock must be subsonic normal",
        ),
        (
            _put(3, z=2.0),
            "piece 5: balance shock would need nonpositive strength -0.459873",
            "piece 5: balance shock would need nonpositive strength",
        ),
        (
            _put(2, L=0),
            "piece 2: contact needs positive density and moving gas",
            "piece 2: contact needs positive density and moving gas",
        ),
        (
            _put(4, theta_start=1.0),
            "piece 4: wave start angle precedes the march",
            "piece 4: wave start angle precedes the march",
        ),
        # a second forward wave starts where the first ends, at the
        # march's own angle, so the one after it fails
        (
            _insert(5, {"kind": "wave", "orientation": "forward", "theta_end": 5.6}),
            "piece 6: balance shock would need nonpositive strength -0.401051",
            "piece 6: balance shock would need nonpositive strength",
        ),
        (
            _insert(5, {"kind": "wave", "orientation": "forward", "theta_end": 5.052640204563339}),
            "piece 5: wave needs a nonempty interval",
            "piece 5: wave needs a nonempty interval",
        ),
        # a declared start a c-relative 1e-7 off sonic, past MATCH_TOL
        (
            _put(0, theta_start=OFF_SONIC_START),
            "piece 0: starting state is not sonic for this orientation",
            "piece 0: starting state is not sonic for this orientation",
        ),
    ],
    ids=[
        "theta-behind", "theta-wrong-side", "balance-nonpositive", "contact-L0",
        "start-precedes", "sonic-start", "empty-wave", "off-sonic-start",
    ],
)
def test_march_failures_keep_their_messages(edit, message, reason):
    cfg = _edited_two_sector(edit)
    assert _failures(cfg.gas, cfg.description) == [
        message,
        NO_SIGN_CHANGE % ("; undefined at 65 of 65 scan points: 65x " + reason),
    ]


def test_declared_start_is_checked_in_the_march_that_builds_pieces():
    # the shooting root as the declared end: no scan, only the closing march
    cfg = _edited_two_sector(_put(0, theta_start=OFF_SONIC_START, theta_end=0.5056612019615194))
    with pytest.raises(flowfield.MarchError) as info:
        build_flow(cfg.gas, cfg.description._replace(shooting=None))
    assert str(info.value) == "piece 0: starting state is not sonic for this orientation"
    # at the sonic angle itself the declared start builds the shipped flow
    cfg = _edited_two_sector(_put(0, theta_start=TWO_SECTOR_SONIC_START))
    flow = build_flow(cfg.gas, cfg.description)
    assert flow.interval_pieces[1].theta_start == TWO_SECTOR_SONIC_START


def test_a_wave_laid_at_the_anchor_angle_meets_the_seam_on_its_first_node():
    # anchored on the backward wave's sonic angle, the flow starts with the wave
    cfg = _edited_two_sector(lambda pieces: None, anchor_theta=TWO_SECTOR_SONIC_START)
    flow = build_flow(cfg.gas, cfg.description)
    assert isinstance(flow.pieces[0], PMPiece)
    assert flow.pieces[0].theta_start == TWO_SECTOR_SONIC_START
    # 2.5e-9 rad past it, with the start declared there: the anchor is off
    # sonic by a c-relative 3.1e-9, so the march stops at the wave's start
    # instead of laying that jump at the seam
    theta = TWO_SECTOR_SONIC_START + 2.5e-9
    cfg = _edited_two_sector(_put(0, theta_start=theta), anchor_theta=theta)
    with pytest.raises(flowfield.MarchError) as info:
        build_flow(cfg.gas, cfg.description._replace(shooting=None))
    assert str(info.value) == "piece 0: starting state is not sonic for this orientation"
    with pytest.raises(flowfield.ClosureError) as info:
        build_flow(cfg.gas, cfg.description)
    assert str(info.value) == NO_SIGN_CHANGE % (
        "; undefined at 65 of 65 scan points: 65x"
        " piece 0: starting state is not sonic for this orientation"
    )


def test_a_solved_wave_start_past_its_end_names_the_sonic_angle():
    # anchored 1e-10 rad past the backward wave's sonic angle, the next N = -c
    # crossing of the anchor constant is on the L < 0 branch, past theta_end
    cfg = _edited_two_sector(lambda pieces: None, anchor_theta=TWO_SECTOR_SONIC_START + 1e-10)
    unshot, shot = _failures(cfg.gas, cfg.description)
    assert unshot == "piece 0: wave's sonic start 2.18616 lies past its end angle 0.5"
    assert shot == NO_SIGN_CHANGE % (
        "; undefined at 65 of 65 scan points: 65x"
        " piece 0: wave's sonic start lies past its end angle"
    )
    # a declared start past the end keeps the interval message
    cfg = _edited_two_sector(_put(0, theta_start=0.6))
    assert _failures(cfg.gas, cfg.description)[0] == "piece 0: wave needs a nonempty interval"


def test_march_error_reason_leaves_out_the_measured_values(gas14):
    desc = two_sector_description()
    events = list(desc.events)
    events[3] = ShockEvent(orientation=Orientation.FORWARD, z=2.0)
    with pytest.raises(flowfield.MarchError) as info:
        flowfield._march(gas14, flowfield._with_param(desc._replace(events=tuple(events)), 0.5))
    assert str(info.value) == "piece 5: balance shock would need nonpositive strength -0.459873"
    assert info.value.reason == "piece 5: balance shock would need nonpositive strength"


@pytest.mark.parametrize(
    "event_index, event, shooting, message",
    [
        # the bracket of a shot strength reaches zero
        (3, ShockEvent(orientation=Orientation.FORWARD, z=-1.0), Shooting(3, "z", (-1.0, 0.0)),
         "piece 3: declared shock strength must be positive"),
        (4, PMEvent(orientation=Orientation.FORWARD, theta_end=7.0), None,
         "piece 4: wave end passes the closure seam"),
        (2, "bogus", None, "piece 2: unknown event type 'bogus'"),
    ],
    ids=["z-nonpositive", "wave-past-seam", "unknown-event"],
)
def test_library_march_failures_keep_their_messages(gas14, event_index, event, shooting, message):
    desc = two_sector_description()
    events = list(desc.events)
    events[event_index] = event
    desc = desc._replace(events=tuple(events), shooting=shooting or desc.shooting)
    assert _failures(gas14, desc) == [
        message,
        NO_SIGN_CHANGE % ("; undefined at 65 of 65 scan points: 65x " + message),
    ]


# -------------------------------------------------------- two-sector flow


def test_two_sector_shot_parameter(two_sector):
    wave_b = next(
        p.wave
        for p in two_sector.interval_pieces
        if isinstance(p, PMPiece) and p.wave.orientation is Orientation.BACKWARD
    )
    assert wave_b.theta_end == pytest.approx(TWO_SECTOR_SHOT_END, abs=5e-10)
    assert wave_b.theta_start == pytest.approx(TWO_SECTOR_WAVE_B[0], abs=5e-9)


def test_two_sector_shock_inventory(two_sector):
    got = [
        (p.orientation, p.theta, _strength(two_sector, p))
        for p in two_sector.shock_points
    ]
    assert len(got) == 3
    for (orient, theta, z), (eo, et, ez) in zip(got, TWO_SECTOR_SHOCKS):
        assert orient is eo
        assert theta == pytest.approx(et, abs=1e-8)
        assert z == pytest.approx(ez, rel=1e-7)


def test_two_sector_contacts_and_forward_wave(two_sector):
    assert [p.theta for p in two_sector.contact_points] == pytest.approx(
        list(TWO_SECTOR_CONTACTS), abs=1e-8
    )
    wave_f = next(
        p.wave
        for p in two_sector.interval_pieces
        if isinstance(p, PMPiece) and p.wave.orientation is Orientation.FORWARD
    )
    assert (wave_f.theta_start, wave_f.theta_end) == pytest.approx(
        TWO_SECTOR_WAVE_F, abs=1e-9
    )


def test_two_sector_sectors(two_sector):
    secs = sector_decompose(two_sector)
    assert [s.direction.value for s in secs] == ["forward", "backward"]
    fwd, bwd = secs
    assert (fwd.theta_start, fwd.theta_end) == pytest.approx(
        (TWO_SECTOR_CONTACTS[0], 6.0), abs=1e-8
    )
    assert bwd.theta_end - bwd.theta_start == pytest.approx(
        TWO_PI - (6.0 - TWO_SECTOR_CONTACTS[0]), abs=1e-8
    )
    assert fwd.theta_bar == pytest.approx(TWO_SECTOR_BARS["forward"], abs=1e-7)
    assert bwd.theta_bar == pytest.approx(TWO_SECTOR_BARS["backward"], abs=1e-7)
    assert_L_vanishes_at_theta_bar(two_sector, secs)


def test_two_sector_structure_checks(two_sector):
    rep = validate_structure(two_sector)
    assert rep.ok
    names = [name for name, _, _ in rep.checks]
    assert names == [
        "shock neighborhoods",
        "single compression per stretch",
        "inflow region shape",
        "opposite shock separation",
        "shock admissibility",
        "sector turning",
    ]
    _, _, margin1 = rep.checks[0]
    assert margin1 == pytest.approx(0.11440408349060721, rel=1e-6)
    _, _, margin4 = rep.checks[3]
    assert margin4 == pytest.approx(1.8874891671805014, rel=1e-6)
    _, _, gap6 = rep.checks[5]
    assert gap6 < 1e-12


def test_two_sector_turning_matches_widths(two_sector):
    # per-sector turning is width - pi, so k sectors sum to 2 pi - k pi:
    # zero net turn for two sectors
    secs = sector_decompose(two_sector)
    total = sum((s.theta_end - s.theta_start) - math.pi for s in secs)
    assert total == pytest.approx(0.0, abs=1e-12)


def test_two_sector_periodicity(two_sector):
    a = conserved_at(two_sector, 0.0)
    b = conserved_at(two_sector, TWO_PI - 1e-12)
    for x, y in zip(a, b):
        assert y == pytest.approx(x, rel=1e-9, abs=1e-9)


def test_two_sector_contact_invariants(two_sector):
    for cp in two_sector.contact_points:
        left, right = _limits(two_sector, cp)
        assert right.p == pytest.approx(left.p, rel=1e-14)
        Nl, _ = to_polar(left.u, left.v, cp.theta)
        Nr, _ = to_polar(right.u, right.v, cp.theta)
        assert abs(Nl) < 1e-10 and abs(Nr) < 1e-10


def test_evaluate_right_continuous_at_jumps(two_sector):
    for sp in two_sector.shock_points:
        right = _limits(two_sector, sp)[1]
        at = evaluate(two_sector, sp.theta)
        assert at.rho == pytest.approx(right.rho, rel=1e-12)
        assert at.p == pytest.approx(right.p, rel=1e-12)
        just_after = evaluate(two_sector, sp.theta + 1e-11)
        assert just_after.rho == pytest.approx(right.rho, rel=1e-9)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name", ["two_sector", "three_sector_g112", "uniform"])
def test_evaluate_many_matches_evaluate(name):
    from sectorflow.cli import parse_config

    cfg = parse_config((CONFIGS / ("%s.json" % name)).read_text())
    flow = build_flow(cfg.gas, cfg.description)
    base = [p.theta for p in flow.jump_points]
    for piece in flow.interval_pieces:
        base += [piece.theta_start, piece.theta_end]
        if isinstance(piece, PMPiece):
            base += list(piece.wave.thetas) + [piece.wave.theta_end]
    base += [flow.anchor_theta + TWO_PI - 1e-12, flow.anchor_theta - 1e-17, -0.3, -4.0]
    thetas = np.array(base + [t + TWO_PI for t in base] + [t - TWO_PI for t in base])
    assert (thetas < 0.0).sum() >= len(base)

    got = np.array(evaluate_many(flow, thetas))
    want = np.array([
        (s.rho, s.u, s.v, s.p) for s in (evaluate(flow, t) for t in thetas.tolist())
    ]).T
    assert (np.abs(got - want) <= 1e-15 * np.maximum(np.abs(got), np.abs(want))).all()


@pytest.mark.parametrize("name", ["two_sector", "three_sector_g112", "uniform"])
def test_a_jump_stores_its_angle_and_kind_only(name):
    """No state is stored at a jump: its sides are the neighbouring pieces' states."""
    cfg = parse_config((CONFIGS / ("%s.json" % name)).read_text())
    flow = build_flow(cfg.gas, cfg.description)
    points = [p for p in flow.pieces if not isinstance(p, (ConstantPiece, PMPiece))]
    assert points == list(flow.jump_points)
    assert len(points) == {"two_sector": 5, "three_sector_g112": 6, "uniform": 0}[name]
    for p in points:
        if isinstance(p, ShockPoint):
            assert p._fields == ("theta", "orientation")
            assert type(p.orientation) is Orientation
        else:
            assert type(p) is ContactPoint and p._fields == ("theta",)
        assert type(p.theta) is float


def test_constant_pieces_rotate_exactly(two_sector):
    # dN/dtheta = L and dL/dtheta = -N on constants, by the frame rotation
    h = 1e-5
    for piece in two_sector.interval_pieces:
        if not isinstance(piece, ConstantPiece):
            continue
        mid = 0.5 * (piece.theta_start + piece.theta_end)
        if piece.theta_end - piece.theta_start < 4 * h:
            continue
        s = piece.state
        Nm, Lm = to_polar(s.u, s.v, mid)
        Np, _ = to_polar(s.u, s.v, mid + h)
        Nn, _ = to_polar(s.u, s.v, mid - h)
        _, Lp = to_polar(s.u, s.v, mid + h)
        _, Ln = to_polar(s.u, s.v, mid - h)
        assert (Np - Nn) / (2 * h) == pytest.approx(Lm, abs=1e-8)
        assert (Lp - Ln) / (2 * h) == pytest.approx(-Nm, abs=1e-8)


def test_wave_samples_obey_tangential_ode(two_sector):
    # |dL/dtheta + N| small across every stored wave, sampled by finite
    # differences of the evaluated flow
    h = 1e-6
    for piece in two_sector.interval_pieces:
        if not isinstance(piece, PMPiece):
            continue
        w = piece.wave
        lo, hi = w.theta_start, w.theta_end
        for k in range(1, 8):
            t = lo + (hi - lo) * k / 8
            sm = evaluate(two_sector, t)
            Nm, _ = to_polar(sm.u, sm.v, t)
            sp_, sn_ = evaluate(two_sector, t + h), evaluate(two_sector, t - h)
            _, Lp = to_polar(sp_.u, sp_.v, t + h)
            _, Ln = to_polar(sn_.u, sn_.v, t - h)
            assert (Lp - Ln) / (2 * h) + Nm == pytest.approx(0.0, abs=1e-6)


# ------------------------------------------------------------------- SBV


def test_bv_oracles(two_sector):
    bv = bv_decompose(two_sector)
    assert bv.total_variation == pytest.approx(TWO_SECTOR_TV_JUMP, rel=1e-8)
    assert bv.tv_lipschitz == pytest.approx(TWO_SECTOR_TV_LIP, rel=1e-4)
    assert bv.lipschitz_constant < 5.0


def test_bv_jump_part_sums_the_jumps(two_sector):
    bv = bv_decompose(two_sector)
    total = 0.0
    for point in two_sector.jump_points:
        left, right = _limits(two_sector, point)
        ul = primitive_to_conserved(left, two_sector.gas)
        ur = primitive_to_conserved(right, two_sector.gas)
        total += math.sqrt(sum((b - a) ** 2 for a, b in zip(ul, ur)))
    assert bv.total_variation == pytest.approx(total, rel=1e-12)


def test_lipschitz_part_continuous_across_jumps(two_sector):
    # U minus the saltus part has matching limits at every jump angle
    eps = 1e-9
    for point in two_sector.jump_points:
        theta = two_sector.local_angle(point.theta)
        left, right = _limits(two_sector, point)
        ul = primitive_to_conserved(left, two_sector.gas)
        ur = primitive_to_conserved(right, two_sector.gas)
        below = conserved_at(two_sector, theta - eps)
        above = conserved_at(two_sector, theta + eps)
        for i in range(4):
            jump_of_U = above[i] - below[i]
            declared = ur[i] - ul[i]
            assert jump_of_U == pytest.approx(declared, rel=1e-6, abs=1e-7)


def _numpy_bv_decompose(flow, samples):
    """bv_decompose as it was on numpy arrays, kept as the float version's reference."""
    jumps = sorted(
        (
            (flow.local_angle(p.theta), flowfield._conserved_jump(flow.gas, *_limits(flow, p)))
            for p in flow.jump_points
        ),
        key=lambda q: q[0],
    )
    ts = flow.anchor_theta + TWO_PI * np.arange(samples + 1) / samples
    rho, u, v, p = evaluate_many(flow, ts)
    E = p / (flow.gas.gamma - 1.0) + 0.5 * rho * (u ** 2 + v ** 2)
    saltus = np.zeros((4, len(ts)))
    for a, dU in jumps:
        saltus += np.where(a <= ts, np.array(dU)[:, None], 0.0)
    part = np.array([rho, rho * u, rho * v, E]) - saltus
    d = np.diff(part, axis=1)
    step = np.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2 + d[3] ** 2)
    return (
        tuple(jumps),
        tuple(zip(ts.tolist(), map(tuple, part.T.tolist()))),
        sum(math.sqrt(sum(x * x for x in dU)) for _, dU in jumps),
        sum(step.tolist()),
        max((step / np.diff(ts)).tolist()),
    )


@pytest.mark.parametrize("samples", [360, 1440])
@pytest.mark.parametrize("name", ["two_sector", "three_sector_g112", "uniform"])
def test_bv_decompose_matches_the_numpy_reference(name, samples):
    from sectorflow.cli import parse_config

    cfg = parse_config((CONFIGS / ("%s.json" % name)).read_text())
    flow = build_flow(cfg.gas, cfg.description)
    got = bv_decompose(flow, samples)
    jumps, part, tv, tv_lip, lip = _numpy_bv_decompose(flow, samples)

    def close(x, y):
        return abs(x - y) <= 4 * math.ulp(max(abs(x), abs(y)))

    assert (got.jump_part, got.total_variation) == (jumps, tv)
    assert [t for t, _ in got.lipschitz_part] == [t for t, _ in part]
    for (_, x), (_, y) in zip(got.lipschitz_part, part):
        assert all(map(close, x, y)), (x, y)
    assert close(got.tv_lipschitz, tv_lip) and close(got.lipschitz_constant, lip)


def _per_row_bv_decompose(flow, samples):
    """bv_decompose as it was before runs of one state shared their part: every row derived."""
    jumps = sorted(
        (
            (flow.local_angle(p.theta), flowfield._conserved_jump(flow.gas, *_limits(flow, p)))
            for p in flow.jump_points
        ),
        key=lambda q: q[0],
    )
    base, g1 = flow.anchor_theta, flow.gas.gamma - 1.0
    ts = [base + TWO_PI * k / samples for k in range(samples + 1)]
    part = []
    saltus, passed = (0.0,) * 4, 0
    for t in ts:
        while passed < len(jumps) and jumps[passed][0] <= t:
            saltus = tuple(x + d for x, d in zip(saltus, jumps[passed][1]))
            passed += 1
        rho, u, v, p = evaluate(flow, t)
        s0, s1, s2, s3 = saltus
        E = p / g1 + 0.5 * rho * (u * u + v * v)
        part.append((rho - s0, rho * u - s1, rho * v - s2, E - s3))
    step = []
    for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(part, part[1:]):
        d0, d1, d2, d3 = b0 - a0, b1 - a1, b2 - a2, b3 - a3
        step.append(math.sqrt(d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3))
    return flowfield.SBVDecomposition(
        jump_part=tuple(jumps),
        lipschitz_part=tuple(zip(ts, part)),
        total_variation=sum(math.sqrt(sum(d * d for d in dU)) for _, dU in jumps),
        tv_lipschitz=sum(step),
        lipschitz_constant=max(h / (t1 - t0) for h, t0, t1 in zip(step, ts, ts[1:])),
    )


@pytest.mark.parametrize("samples", [9, 360, 720, 1440])
@pytest.mark.parametrize(
    "name, steps",
    [("two_sector", 16), ("two_sector", 64), ("three_sector_g112", None), ("uniform", None)],
)
def test_bv_decompose_is_bitwise_the_per_row_split(name, steps, samples):
    cfg = _scaled_two_sector(steps) if name == "two_sector" else parse_config(
        (CONFIGS / ("%s.json" % name)).read_text()
    )
    flow = build_flow(cfg.gas, cfg.description)
    assert repr(bv_decompose(flow, samples)) == repr(_per_row_bv_decompose(flow, samples))


def test_pointwise_split_reconstructs_the_flow(two_sector):
    bv = bv_decompose(two_sector, samples=360)
    jumps = []
    for point in two_sector.jump_points:
        left, right = _limits(two_sector, point)
        ul = primitive_to_conserved(left, two_sector.gas)
        ur = primitive_to_conserved(right, two_sector.gas)
        jumps.append(
            (two_sector.local_angle(point.theta), tuple(r - l for l, r in zip(ul, ur)))
        )
    for t, ul_part in bv.lipschitz_part:
        U = conserved_at(two_sector, min(t, TWO_PI - 1e-13))
        S = [0.0, 0.0, 0.0, 0.0]
        for a, dU in jumps:
            if a <= t:
                for i in range(4):
                    S[i] += dU[i]
        for i in range(4):
            assert ul_part[i] + S[i] == pytest.approx(U[i], rel=1e-9, abs=1e-9)


# ------------------------------------------------------ three-sector flow


def test_three_sector_builds_with_shot_strength(three_sector):
    zb = _strength(three_sector, three_sector.shock_points[1])
    assert zb == pytest.approx(THREE_SECTOR_SHOT_ZB, rel=1e-6)


def test_three_sector_inventory(three_sector):
    got = [
        (p.orientation, p.theta, _strength(three_sector, p))
        for p in three_sector.shock_points
    ]
    for (orient, theta, z), (eo, et, ez) in zip(got, THREE_SECTOR_SHOCKS):
        assert orient is eo
        assert theta == pytest.approx(et, abs=1e-6)
        assert z == pytest.approx(ez, rel=1e-6)
    assert [p.theta for p in three_sector.contact_points] == pytest.approx(
        list(THREE_SECTOR_CONTACTS), abs=1e-6
    )


def test_three_sector_sector_turns(three_sector):
    secs = sector_decompose(three_sector)
    assert len(secs) == 3
    dirs = [s.direction.value for s in secs]
    assert sorted(dirs) == ["backward", "forward", "forward"]
    turns = [math.degrees((s.theta_end - s.theta_start) - math.pi) for s in secs]
    # every sector turns the flow by roughly -60 degrees and the three
    # turns sum to a half turn; no single shock could do this at gamma=1.4
    for t in turns:
        assert -63.3 < t < -55.0
    assert sum(turns) == pytest.approx(-180.0, abs=1e-9)
    assert_L_vanishes_at_theta_bar(three_sector, secs)


def test_three_sector_structure(three_sector):
    rep = validate_structure(three_sector)
    assert rep.ok
    passed, margin = rep.named("shock neighborhoods")
    assert passed and margin == pytest.approx(0.1077186636572082, rel=1e-5)
    passed, gap = rep.named("sector turning")
    assert passed and gap < 1e-12


def test_three_sector_is_pure_saltus(three_sector):
    # no smooth waves anywhere: the Lipschitz part is a constant
    bv = bv_decompose(three_sector)
    assert bv.total_variation == pytest.approx(THREE_SECTOR_TV_JUMP, rel=1e-6)
    assert bv.tv_lipschitz == pytest.approx(0.0, abs=1e-6)
    assert bv.lipschitz_constant == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("name", ["two_sector", "three_sector_g112"])
def test_declared_angle_shocks_reproduce_the_built_strengths(name):
    """Each shock placed at its built angle gets back its strength, either orientation."""
    cfg = parse_config((CONFIGS / (name + ".json")).read_text())
    flow = build_flow(cfg.gas, cfg.description)
    # events and the non-constant pieces they produced come in the same order
    built = [p for p in flow.pieces if not isinstance(p, ConstantPiece)]
    events = []
    for ev, piece in zip(cfg.description.events, built):
        if isinstance(ev, PMEvent):
            ev = ev._replace(theta_end=piece.theta_end)  # resolves a wave-end shot
        elif isinstance(ev, ShockEvent) and ev.z is not None:
            ev = ShockEvent(orientation=ev.orientation, theta=piece.theta)
        events.append(ev)
    assert len(events) == len(cfg.description.events)
    rebuilt = build_flow(
        cfg.gas, cfg.description._replace(events=tuple(events), shooting=None)
    )
    assert {p.orientation for p in rebuilt.shock_points} == set(Orientation)
    assert len(rebuilt.shock_points) == len(flow.shock_points)
    for a, b in zip(flow.shock_points, rebuilt.shock_points):
        assert b.orientation is a.orientation
        assert _strength(rebuilt, b) == pytest.approx(_strength(flow, a), rel=1e-12)


def test_three_sector_needs_small_gamma(gas112):
    bounds = THREE_SECTOR_BOUNDS
    gas = make_gas(1.4, bounds)
    with pytest.raises(ClosureError, match="no sign change"):
        build_flow(gas, three_sector_description())


# --------------------------------------------------------------- mutants


def _piece_index(flow, predicate):
    for k, p in enumerate(flow.pieces):
        if predicate(p):
            return k
    raise AssertionError("piece not found")


def _with_pieces(flow, pieces):
    return FlowField(gas=flow.gas, anchor_theta=flow.anchor_theta, pieces=tuple(pieces))


def _with_contacts(flow, thetas):
    """flow with contact markers added at the given angles; its states stay as they are."""
    fakes = tuple(ContactPoint(theta=t) for t in thetas)
    return _with_pieces(flow, flow.pieces + fakes)


def four_contacts_mutant(flow):
    return _with_contacts(flow, (0.3, 1.7, 3.1, 4.5))


def _splice_backward_wave(flow, gas, L_seed):
    """Insert a second backward wave into the first post-shot constant.

    With L_seed None the seed keeps the constant's own tangential velocity
    (a second compression in the same stretch); with an explicit positive
    L_seed the wave sits in the L < 0 region with the wrong sign.
    """
    k = _piece_index(
        flow,
        lambda p: isinstance(p, ConstantPiece)
        and abs(p.theta_start - TWO_SECTOR_SHOT_END) < 1e-6,
    )
    const = flow.pieces[k]
    s = const.state
    c = s.sound_speed(gas)
    lo, hi = 0.9, 1.05
    if L_seed is None:
        _, L_seed = to_polar(s.u, s.v, lo)
    u2, v2 = from_polar(-c, L_seed, lo)
    seed = PrimitiveState(rho=s.rho, u=u2, v=v2, p=s.p)
    wave2 = integrate_pm(seed, lo, hi, Orientation.BACKWARD, gas)
    pieces = list(flow.pieces)
    pieces[k : k + 1] = [
        ConstantPiece(const.theta_start, lo, s),
        PMPiece(wave2),
        ConstantPiece(hi, const.theta_end, s),
    ]
    return _with_pieces(flow, pieces)


def adjacent_compressions_mutant(flow, gas):
    return _splice_backward_wave(flow, gas, None)


def misplaced_wave_mutant(flow, gas):
    return _splice_backward_wave(flow, gas, 1.4)


def _flipped(orientation):
    return Orientation.BACKWARD if orientation is Orientation.FORWARD else Orientation.FORWARD


def swapped_shock_mutant(flow):
    """flow whose first shock marker claims the other orientation; the states stay."""
    k = _piece_index(flow, lambda p: isinstance(p, ShockPoint))
    pieces = list(flow.pieces)
    pieces[k] = pieces[k]._replace(orientation=_flipped(pieces[k].orientation))
    return _with_pieces(flow, pieces)


def swapped_sides_mutant(flow):
    """flow whose first shock carries the reversed jump: the constants beside it trade states."""
    k = _piece_index(flow, lambda p: isinstance(p, ShockPoint))
    pieces = list(flow.pieces)
    before, after = pieces[k - 1], pieces[k + 1]
    pieces[k - 1], pieces[k + 1] = before._replace(state=after.state), after._replace(state=before.state)
    return _with_pieces(flow, pieces)


def test_four_contacts_rejected(gas14):
    broken = four_contacts_mutant(uniform_flow(gas14))
    with pytest.raises(ValueError, match="violates maximum-sector theorem"):
        sector_decompose(broken)


def test_adjacent_compressions_fail_named_check(two_sector, gas14):
    # a second backward compression in the stretch behind the existing
    # one, with no shock in between
    mutant = adjacent_compressions_mutant(two_sector, gas14)
    rep = validate_structure(mutant)
    passed, detail = rep.named("single compression per stretch")
    assert not passed
    assert "two compression waves" in detail


def test_expansion_in_inflow_region_fails_classification(two_sector, gas14):
    # a backward wave with L > 0 inside the backward sector's L < 0
    # region: its position contradicts its tangential sign
    mutant = misplaced_wave_mutant(two_sector, gas14)
    rep = validate_structure(mutant)
    passed, detail = rep.named("single compression per stretch")
    assert not passed
    assert "inconsistent" in detail


def test_swapped_shock_fails_admissibility(two_sector):
    # the first shock is backward; its limits still classify as one
    mutant = swapped_shock_mutant(two_sector)
    assert mutant.shock_points[0].orientation is Orientation.FORWARD
    rep = validate_structure(mutant)
    passed, detail = rep.named("shock admissibility")
    assert not passed
    assert detail == "shock at %.6g fails: the flow's limits classify as backward_shock" % (
        two_sector.shock_points[0].theta
    )


def test_swapped_shock_sides_fail_the_audit(two_sector):
    mutant = swapped_sides_mutant(two_sector)
    shock = two_sector.shock_points[0]
    theta = shock.theta
    assert _limits(mutant, shock) == _limits(two_sector, shock)[::-1]
    rep = full_audit(mutant)
    assert rep.verdict == "fail"
    assert [row for row in rep.admissibility if row[0] == theta] == [
        (theta, "shock", False, "entropy decreases across the jump")
    ]


# ------------------------------------------------------ structure branches
#
# Hand-built flows for the branches of sector_decompose and
# validate_structure that no built flow reaches. The inflow region's shape
# is reported as pass or fail only, so each admitted shape is pinned by
# passing and the rejected one by its detail.


def _shock_index(flow, orientation):
    return _piece_index(
        flow, lambda p: isinstance(p, ShockPoint) and p.orientation is orientation
    )


def _waves_for_shock(flow, gas, orientation, ends, dL=0.0):
    """flow with its first shock of this orientation replaced by waves of it.

    The constant ahead of the shock runs on to its next N = +-c angle;
    from there each wave follows the last up to the next of ends (None:
    the L zero), with its stored L lowered by dL, and the last end state
    holds until the constant behind the shock ends.
    """
    k = _shock_index(flow, orientation)
    const, after = flow.pieces[k - 1], flow.pieces[k + 1]
    s = const.state
    N = orientation.sign * s.sound_speed(gas)
    a = flowfield._next_angle_with_normal(s.u, s.v, N, const.theta_start)
    start = PrimitiveState(s.rho, *from_polar(N, to_polar(s.u, s.v, a)[1], a), s.p)
    pieces = [ConstantPiece(const.theta_start, a, s)]
    for end in ends:
        if end is None:
            end = L_zero_angle(gas, start, a, orientation)
        wave = integrate_pm(start, a, end, orientation, gas)
        pieces.append(PMPiece(wave._replace(Ls=tuple(L - dL for L in wave.Ls))))
        start, a = wave.end_state(), wave.theta_end
    pieces.append(ConstantPiece(a, after.theta_end, start))
    return _with_pieces(flow, flow.pieces[: k - 1] + tuple(pieces) + flow.pieces[k + 2 :])


FIVE_CASE_FAILURE = (False, "inflow region fails the five-case classification")


# The forward sector's shock gives way to expansions from 4.0209 on, where
# the constant ahead has N = +c; their L falls to zero at the turn, 4.3315.
# The backward sector's gives way to one from 2.18 on, before its contact.
@pytest.mark.parametrize(
    "orientation, ends, dL, shape",
    [
        (Orientation.FORWARD, (None,), 0.0, (True, "")),
        (Orientation.FORWARD, (4.2,), 0.0, (True, "")),
        (Orientation.BACKWARD, (2.5,), 0.0, (True, "")),
        (Orientation.FORWARD, (4.2, None), 0.0, FIVE_CASE_FAILURE),
        # L lowered past zero before the wave ends: no wave kind at all
        (Orientation.FORWARD, (None,), 0.1, FIVE_CASE_FAILURE),
    ],
    ids=[
        "expansion-to-the-turn", "one-expansion", "one-backward-expansion",
        "two-expansions", "wave-straddling-the-turn",
    ],
)
def test_inflow_region_shapes_with_waves(two_sector, gas14, orientation, ends, dL, shape):
    mutant = _waves_for_shock(two_sector, gas14, orientation, ends, dL)
    assert validate_structure(mutant).named("inflow region shape") == shape


def test_normal_shock_at_the_turn_is_an_admitted_inflow_shape(two_sector):
    # the backward shock laid by the march 1e-7 past the backward sector's
    # turn, where the constant ahead of it has |L| about 2e-7
    k = _shock_index(two_sector, Orientation.BACKWARD)
    const, after = two_sector.pieces[k - 1], two_sector.pieces[k + 1]
    backward = next(
        sec for sec in sector_decompose(two_sector) if sec.direction is Orientation.BACKWARD
    )
    theta = backward.theta_bar - TWO_PI + 1e-7
    event = ShockEvent(orientation=Orientation.BACKWARD, theta=theta)
    laid, _ = flowfield._march(
        two_sector.gas, FlowDescription(const.theta_start, const.state, (event,)), keep=True
    )
    ahead, marker, behind = laid
    assert marker == ShockPoint(theta, Orientation.BACKWARD)
    assert abs(to_polar(ahead.state.u, ahead.state.v, theta)[1]) <= 1e-6
    pieces = (
        ConstantPiece(const.theta_start, theta, const.state),
        marker,
        ConstantPiece(theta, after.theta_end, behind.state),
    )
    mutant = _with_pieces(
        two_sector, two_sector.pieces[: k - 1] + pieces + two_sector.pieces[k + 2 :]
    )
    assert validate_structure(mutant).named("inflow region shape") == (True, "")


def test_narrow_constant_beside_a_shock_fails_its_neighborhood(two_sector):
    # the constant ahead of the forward shock split half its need before it
    k = _shock_index(two_sector, Orientation.FORWARD)
    const, sp = two_sector.pieces[k - 1], two_sector.pieces[k]
    need = lax_neighborhood_bound(two_sector.gas) * verify._jump_norm(
        two_sector.gas, *_limits(two_sector, sp)
    )
    split = sp.theta - need / 2
    pieces = list(two_sector.pieces)
    pieces[k - 1 : k] = [
        ConstantPiece(const.theta_start, split, const.state),
        ConstantPiece(split, sp.theta, const.state),
    ]
    rep = validate_structure(_with_pieces(two_sector, pieces))
    assert rep.named("shock neighborhoods") == (False, (sp.theta - split) - need)


def test_opposite_shocks_closer_than_the_floor_fail_their_separation(two_sector):
    # the backward shock moved onto the forward one
    k = _shock_index(two_sector, Orientation.BACKWARD)
    forward = two_sector.pieces[_shock_index(two_sector, Orientation.FORWARD)]
    pieces = list(two_sector.pieces)
    pieces[k] = pieces[k]._replace(theta=forward.theta)
    rep = validate_structure(_with_pieces(two_sector, pieces))
    assert rep.named("opposite shock separation") == (
        False,
        -shock_separation_floor(two_sector.gas),
    )


def _constants(gas, state, *cuts):
    """A flow of one state, stored as one constant piece per cut interval."""
    ends = (0.0,) + cuts + (TWO_PI,)
    pieces = tuple(ConstantPiece(a, b, state) for a, b in zip(ends, ends[1:]))
    return FlowField(gas=gas, anchor_theta=0.0, pieces=pieces)


@pytest.mark.parametrize(
    "mutant, message",
    [
        (
            lambda gas: _constants(gas, evaluate(uniform_flow(gas), 0.0), 1.0),
            "flow without contacts must be a single constant",
        ),
        # gas at rest, which no build reaches: the anchor check calls it a
        # stagnation point
        (
            lambda gas: _constants(gas, PrimitiveState(rho=1.0, u=0.0, v=0.0, p=1.0)),
            "sector with vanishing N throughout",
        ),
        # the flow angle is 1.1: N changes sign at 1.1 + pi
        (
            lambda gas: _with_contacts(uniform_flow(gas), (1.6, 1.6 + math.pi)),
            "sector with sign-inconsistent N",
        ),
        # N > 0 throughout, but L < 0 already at the entry
        (
            lambda gas: _with_contacts(
                uniform_flow(gas), (1.2 + math.pi / 2, 1.0 + math.pi)
            ),
            "forward sector tangential signs are wrong",
        ),
        # flow angle -2: N < 0 throughout, but L > 0 already at the entry
        (
            lambda gas: _with_contacts(
                uniform_flow(gas, phi=-2.0), (-1.9 + 1.5 * math.pi, -2.1 + 2.0 * math.pi)
            ),
            "backward sector tangential signs are wrong",
        ),
    ],
    ids=["no-contacts", "at-rest", "N-changes-sign", "forward-L-signs", "backward-L-signs"],
)
def test_sector_decompose_rejects_what_it_cannot_split(gas14, mutant, message):
    with pytest.raises(ValueError) as info:
        sector_decompose(mutant(gas14))
    assert str(info.value) == message


@pytest.mark.parametrize("shift", [1e-3, 1e-5])
def test_sector_sign_check_sees_a_zero_next_to_a_contact(two_sector, shift):
    # the contact at 6.0 moved up: the constant before it runs past its own
    # N zero, so N changes sign shift rad inside the sector that ends there
    k = _piece_index(two_sector, lambda p: isinstance(p, ContactPoint) and p.theta == 6.0)
    pieces = list(two_sector.pieces)
    theta = pieces[k].theta + shift
    pieces[k - 1] = pieces[k - 1]._replace(theta_end=theta)
    pieces[k] = pieces[k]._replace(theta=theta)
    pieces[k + 1] = pieces[k + 1]._replace(theta_start=theta)
    with pytest.raises(ValueError) as info:
        sector_decompose(_with_pieces(two_sector, pieces))
    assert str(info.value) == "sector with sign-inconsistent N"
