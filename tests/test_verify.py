"""Weak-form, entropy, and smooth-residual audits on the golden flows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorflow.flowfield import (
    ConstantPiece,
    FlowDescription,
    FlowField,
    ShockPoint,
    build_flow,
    evaluate,
)
from sectorflow.gas import WEAK_TOL, PhaseBounds, PrimitiveState, make_gas
from sectorflow.shock import Orientation
from sectorflow.verify import _residuals, full_audit, smooth_residual

from test_flowfield import (
    THREE_SECTOR_BOUNDS,
    TWO_SECTOR_WAVE_B,
    TWO_SECTOR_WAVE_F,
    three_sector_description,
    two_sector_description,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def gas14():
    bounds = PhaseBounds(
        rho_min=0.05, rho_max=20.0, p_min=0.05, p_max=20.0, speed_max=15.0, e_min=1e-3
    )
    return make_gas(1.4, bounds)


@pytest.fixture(scope="module")
def two_sector(gas14):
    return build_flow(gas14, two_sector_description())


@pytest.fixture(scope="module")
def three_sector():
    gas = make_gas(1.12, THREE_SECTOR_BOUNDS)
    return build_flow(gas, three_sector_description())


@pytest.fixture(scope="module")
def uniform(gas14):
    anchor = PrimitiveState(rho=1.0, u=2.0, v=0.7, p=1.3)
    return build_flow(gas14, FlowDescription(0.0, anchor, ()))


def interval_residuals(flow, theta1, theta2, quad_points=8, subdiv=1):
    """Raw weak residual (4-tuple) and entropy production of one interval, on any turn."""
    t1 = flow.local_angle(theta1)
    rule = np.polynomial.legendre.leggauss(quad_points)
    weak, _, production, _ = _residuals(flow, [(t1, t1 + (theta2 - theta1))], rule, subdiv)
    return tuple(weak[0].tolist()), float(production[0])


def _straddle(flow, theta):
    """Midpoint-to-midpoint interval crossing exactly one jump."""
    mids = [0.5 * (p.theta_start + p.theta_end) for p in flow.interval_pieces]
    lo = max(m for m in mids if m < theta)
    hi = min(m for m in mids if m > theta)
    return lo, hi


# ------------------------------------------------------------- weak form


def test_weak_residual_constant_piece(two_sector):
    # strictly inside one constant piece the identity is the plain
    # rotation formula, and Gauss-Legendre resolves it to machine level
    piece = two_sector.interval_pieces[4]
    assert isinstance(piece, ConstantPiece)
    w = piece.theta_end - piece.theta_start
    r = interval_residuals(two_sector, piece.theta_start + 0.1 * w, piece.theta_end - 0.1 * w)[0]
    assert max(abs(x) for x in r) <= 1e-12


def test_weak_residual_uniform_any_interval(uniform):
    r = interval_residuals(uniform, 0.3, 5.9)[0]
    assert max(abs(x) for x in r) <= 1e-12


def test_weak_residual_across_each_shock(two_sector):
    # flux continuity cancels the boundary terms across a valid shock,
    # so the residual stays at quadrature floor, well under 1e-10
    for sp in two_sector.shock_points:
        lo, hi = _straddle(two_sector, sp.theta)
        r = interval_residuals(two_sector, lo, hi)[0]
        assert max(abs(x) for x in r) <= 1e-10


def test_weak_residual_across_each_shock_three_sector(three_sector):
    # fluxes are O(1e3) in this flow, so the floor sits proportionally
    # higher; the audit's scaled view is tested further down
    for sp in three_sector.shock_points:
        lo, hi = _straddle(three_sector, sp.theta)
        r = interval_residuals(three_sector, lo, hi)[0]
        assert max(abs(x) for x in r) <= 1e-6


def test_weak_residual_full_circle(two_sector):
    r = interval_residuals(two_sector, 0.0, TWO_PI)[0]
    assert max(abs(x) for x in r) <= 1e-9


@pytest.mark.parametrize("interval", [TWO_SECTOR_WAVE_B, TWO_SECTOR_WAVE_F])
def test_weak_residual_wave_quadrature_order(two_sector, interval):
    """Panel refinement converges at the 2-point rule's theoretical order 4."""
    lo, hi = interval[0] - 0.05, interval[1] + 0.05
    r1 = interval_residuals(two_sector, lo, hi, quad_points=2, subdiv=1)[0]
    r2 = interval_residuals(two_sector, lo, hi, quad_points=2, subdiv=2)[0]
    r4 = interval_residuals(two_sector, lo, hi, quad_points=2, subdiv=4)[0]
    d1 = max(abs(a - b) for a, b in zip(r1, r2))
    d2 = max(abs(a - b) for a, b in zip(r2, r4))
    if d2 <= 1e-14:
        return  # already at floor
    order = math.log2(d1 / d2)
    assert order >= 3.9


# -------------------------------------------------------------- entropy


def test_entropy_zero_on_constant(two_sector):
    piece = two_sector.interval_pieces[4]
    w = piece.theta_end - piece.theta_start
    e = interval_residuals(
        two_sector, piece.theta_start + 0.1 * w, piece.theta_end - 0.1 * w
    )[1]
    assert abs(e) <= 1e-13


def test_entropy_production_positive_at_shocks(two_sector):
    for sp in two_sector.shock_points:
        lo, hi = _straddle(two_sector, sp.theta)
        assert interval_residuals(two_sector, lo, hi)[1] > 1e-4


def test_entropy_zero_across_contacts(two_sector):
    # no mass crosses a contact, so it produces nothing
    for cp in two_sector.contact_points:
        lo, hi = _straddle(two_sector, cp.theta)
        e = interval_residuals(two_sector, lo, hi)[1]
        assert abs(e) <= 1e-9


def _reversed_shock_flow(flow, index):
    """Two constants around one shock with the states transposed.

    The transposition keeps flux continuity (the jump conditions are
    symmetric) but runs the gas from back to front, so the entropy
    surrogate drops across the jump instead of rising.
    """
    sp = flow.shock_points[index]
    th = sp.theta
    left = evaluate(flow, th - 1e-9)
    right = evaluate(flow, th)
    anchor = th - 0.5
    return FlowField(
        gas=flow.gas,
        anchor_theta=anchor,
        pieces=(
            ConstantPiece(state=right, theta_start=anchor, theta_end=th),
            ShockPoint(th, sp.orientation),
            ConstantPiece(state=left, theta_start=th, theta_end=anchor + TWO_PI),
        ),
    )


def test_reversed_shock_flags_negative_production(two_sector):
    rev = _reversed_shock_flow(two_sector, 1)
    th = two_sector.shock_points[1].theta
    e = interval_residuals(rev, th - 0.2, th + 0.2)[1]
    assert e < -1e-4
    # the weak form cannot tell: jump conditions hold either way round
    r = interval_residuals(rev, th - 0.2, th + 0.2)[0]
    assert max(abs(x) for x in r) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=TWO_PI),
    w=st.floats(min_value=1e-3, max_value=TWO_PI),
)
def test_entropy_never_negative_on_random_subintervals(two_sector, a, w):
    e = interval_residuals(two_sector, a, a + w)[1]
    assert e >= -1e-9


# ------------------------------------------------------- smooth residual


def test_smooth_residual_uniform(uniform):
    res = smooth_residual(uniform)
    assert max(res) <= 1e-8


def test_smooth_residual_golden_flows(two_sector, three_sector):
    assert max(smooth_residual(two_sector)) <= 1e-6
    # the wave-free flow is piecewise constant, so only the finite
    # difference truncation of the rotation terms remains
    assert max(smooth_residual(three_sector)) <= 1e-7


# ------------------------------------------------------------ full audit


def test_full_audit_two_sector(two_sector):
    rep = full_audit(two_sector)
    assert rep.verdict == "pass"
    assert rep.ok
    assert max(rep.weak_residual_max) <= 1e-10
    assert rep.entropy_min >= -1e-10
    assert rep.entropy_violations == ()
    assert max(rep.smooth_residual_max) <= 1e-6
    assert all(ok for _, _, ok, _ in rep.admissibility)
    assert rep.structure.ok
    assert rep.sector_count == 2


def test_full_audit_three_sector(three_sector):
    rep = full_audit(three_sector)
    assert rep.verdict == "pass"
    assert rep.sector_count == 3
    assert rep.entropy_violations == ()


def test_full_audit_uniform_at_floor(uniform):
    rep = full_audit(uniform)
    assert rep.verdict == "pass"
    assert max(rep.weak_residual_max) <= 1e-13
    assert rep.entropy_min >= -1e-13
    assert max(rep.smooth_residual_max) <= 1e-8
    assert rep.admissibility == ()
    assert rep.sector_count == 2


def test_full_audit_fails_a_nan_entropy_production():
    # rho^gamma of the anchor's 1e-300 underflows to 0, so s = p / rho^gamma
    # is infinite and every production NaN, which is no pass
    tiny = make_gas(1.4, PhaseBounds(1e-320, 20.0, 1e-320, 20.0, 15.0, 1e-320))
    anchor = PrimitiveState(rho=1e-300, u=2.0, v=0.7, p=1e-300)
    rep = full_audit(build_flow(tiny, FlowDescription(0.0, anchor, ())))
    assert math.isnan(rep.entropy_min)
    assert rep.entropy_violations
    assert all(math.isnan(prod) for _, prod in rep.entropy_violations)
    assert rep.verdict == "fail"


@pytest.mark.parametrize("field", ["weak_residual_max", "smooth_residual_max"])
def test_a_nan_residual_component_fails_the_verdict(uniform, field):
    rep = full_audit(uniform)
    for k in range(4):
        values = [0.0] * 4
        values[k] = math.nan
        assert not rep._replace(**{field: tuple(values)}).ok


def test_full_audit_identifies_inadmissible_shock(two_sector):
    # flip one shock marker's orientation, so the flow's limits there no
    # longer form the kind it claims; the audit must name that shock and fail
    target = two_sector.shock_points[1]
    other = next(o for o in Orientation if o is not target.orientation)
    flipped = target._replace(orientation=other)
    pieces = tuple(flipped if p is target else p for p in two_sector.pieces)
    mutant = FlowField(
        gas=two_sector.gas, anchor_theta=two_sector.anchor_theta, pieces=pieces
    )
    rep = full_audit(mutant)
    assert rep.verdict == "fail"
    bad = [(t, ok, det) for t, kind, ok, det in rep.admissibility if kind == "shock" and not ok]
    assert len(bad) == 1
    assert abs(bad[0][0] - target.theta) < 1e-12
    assert bad[0][2]  # a named failing condition


def test_audit_report_scales_with_flow_magnitude(three_sector):
    # fluxes here are O(1e3); absolute residual tolerances would be
    # meaningless, so reported maxima must be scale-normalized
    rep = full_audit(three_sector)
    assert max(rep.weak_residual_max) <= 1e-12


def test_full_audit_decomposes_once_and_checks_each_shock_once(two_sector, monkeypatch):
    from sectorflow import flowfield, verify

    calls = {"sector_decompose": 0, "check_admissibility": 0, "_jump_limits": 0}
    for module in (flowfield, verify):
        for name in calls:
            if hasattr(module, name):

                def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    report = full_audit(two_sector)
    n = len(two_sector.shock_points)
    # each jump's two limits are read once, for every check that needs them
    assert calls == {
        "sector_decompose": 1, "check_admissibility": n, "_jump_limits": len(two_sector.jump_points)
    }
    assert report.sector_count == 2 and len(report.admissibility) == n + 2


# ---------------------------------------------------- perturbed neighbours
#
# A flow stores each state once, in its interval pieces, so a jump's sides
# are the constants beside it. Each mutant scales the density of the
# constant to the right of one jump by 1 + eps. On a grid of ten points per
# decade the smallest failing eps is 5.0e-10, 6.3e-10, 3.2e-10, 4.0e-10 and
# 1.3e-9, jump by jump in angle; each case runs at ten times that, and
# passes at a hundredth of it.


def _denser_right_of(flow, k, eps):
    """flow with the constant after its k-th jump (in angle) made denser by 1 + eps."""
    i = flow.pieces.index(flow.jump_points[k]) + 1
    piece = flow.pieces[i]
    assert isinstance(piece, ConstantPiece)
    state = piece.state._replace(rho=piece.state.rho * (1.0 + eps))
    pieces = flow.pieces[:i] + (piece._replace(state=state),) + flow.pieces[i + 1 :]
    return flow._replace(pieces=pieces)


@pytest.mark.parametrize(
    "k, eps",
    [(0, 5.0e-10), (1, 6.3e-10), (2, 3.2e-10), (3, 4.0e-10), (4, 1.3e-9)],
    ids=["shock-0", "contact-0", "shock-1", "shock-2", "contact-1"],
)
def test_full_audit_fails_a_perturbed_neighbour_of_each_jump(two_sector, k, eps):
    rep = full_audit(_denser_right_of(two_sector, k, 10.0 * eps))
    assert rep.verdict == "fail"
    assert max(rep.weak_residual_max) > WEAK_TOL
    assert full_audit(_denser_right_of(two_sector, k, 1e-2 * eps)).ok
