import math

import pytest
from hypothesis import given, strategies as st

from sectorflow.cli import _csv_text
from sectorflow.gas import (
    ConservedState,
    PhaseBounds,
    PrimitiveState,
    conserved_to_primitive,
    in_phase_space,
    inside_box,
    make_gas,
    physical_fluxes,
    primitive_to_conserved,
    relative_gap,
    require_in_phase_space,
)

finite = dict(allow_nan=False, allow_infinity=False)


def test_make_gas_rejects_gamma_at_or_below_one():
    b = PhaseBounds(0.1, 10.0, 0.1, 10.0, 5.0, 1e-3)
    with pytest.raises(ValueError, match="gamma"):
        make_gas(1.0, b)
    with pytest.raises(ValueError, match="gamma"):
        make_gas(0.9, b)


def test_bounds_validation():
    with pytest.raises(ValueError, match="density"):
        PhaseBounds(0.0, 10.0, 0.1, 10.0, 5.0, 1e-3)
    with pytest.raises(ValueError, match="density"):
        PhaseBounds(2.0, 1.0, 0.1, 10.0, 5.0, 1e-3)
    with pytest.raises(ValueError, match="pressure"):
        PhaseBounds(0.1, 10.0, -1.0, 10.0, 5.0, 1e-3)
    with pytest.raises(ValueError, match="speed"):
        PhaseBounds(0.1, 10.0, 0.1, 10.0, 0.0, 1e-3)
    with pytest.raises(ValueError, match="e_min"):
        PhaseBounds(0.1, 10.0, 0.1, 10.0, 5.0, 0.0)


def test_precomputed_constants(gas):
    # c_min at the (p_min, rho_max) corner, z_max from the pressure range
    assert gas.c_min == pytest.approx(math.sqrt(1.4 * 0.05 / 20.0), rel=1e-15)
    assert gas.z_max == pytest.approx((20.0 - 0.05) / 0.05, rel=1e-15)


def test_state_rejects_nonphysical():
    with pytest.raises(ValueError, match="density"):
        PrimitiveState(rho=0.0, u=1.0, v=0.0, p=1.0)
    with pytest.raises(ValueError, match="pressure"):
        PrimitiveState(rho=1.0, u=1.0, v=0.0, p=-0.5)


def _generator_relative_gap(a, b):
    """relative_gap with max driving a generator: the reference for its list form."""
    return max(abs(x - y) / max(abs(x), abs(y), 1.0) for x, y in zip(a, b))


@pytest.mark.parametrize(
    "a, b",
    [
        (PrimitiveState(1.0, 2.0, -3.0, 4.0), PrimitiveState(1.0, 2.0000001, -3.0, 4.5)),
        ((1.0, 2.0), (1.5, -2.0)),
        ((math.nan, 1.0), (1.0, 2.0)),  # a NaN first is the max
        ((1.0, math.nan), (2.0, 1.0)),  # a NaN later is passed over
        ((math.inf, 1.0), (1.0, 1.0)),
        ((1.0, -math.inf), (3.0, 1.0)),
        ((-0.0, 0.0), (0.0, -0.0)),
    ],
)
def test_relative_gap_is_the_generator_form(a, b):
    assert repr(relative_gap(a, b)) == repr(_generator_relative_gap(a, b))


def test_relative_gap_of_nothing_raises():
    with pytest.raises(ValueError) as want:
        _generator_relative_gap((), ())
    with pytest.raises(ValueError) as got:
        relative_gap((), ())
    assert str(got.value) == str(want.value)


def test_thermo_relations(gas):
    s = PrimitiveState(rho=2.0, u=1.0, v=-2.0, p=3.0)
    assert s.speed == pytest.approx(math.sqrt(5.0))
    assert s.sound_speed(gas) == pytest.approx(math.sqrt(1.4 * 1.5))
    assert s.internal_energy(gas) == pytest.approx(3.0 / (0.4 * 2.0))
    # h = e + p/rho + q^2/2
    assert s.enthalpy(gas) == pytest.approx(
        s.internal_energy(gas) + s.p / s.rho + 0.5 * 5.0
    )
    assert s.total_energy(gas) == pytest.approx(3.0 / 0.4 + 0.5 * 2.0 * 5.0)
    # the entropy surrogate s = p / rho^gamma, as the CSV export's s column gives it
    row = _csv_text(gas, [0.0], [s]).splitlines()[1]
    assert float(row.split(",")[9]) == pytest.approx(3.0 / 2.0 ** 1.4)


@given(
    rho=st.floats(0.05, 20.0, **finite),
    u=st.floats(-8.0, 8.0, **finite),
    v=st.floats(-8.0, 8.0, **finite),
    p=st.floats(0.05, 20.0, **finite),
)
def test_conserved_round_trip(rho, u, v, p):
    b = PhaseBounds(0.01, 50.0, 0.01, 50.0, 30.0, 1e-6)
    g = make_gas(1.4, b)
    s = PrimitiveState(rho=rho, u=u, v=v, p=p)
    back = conserved_to_primitive(primitive_to_conserved(s, g), g)
    assert back.rho == pytest.approx(rho, rel=1e-12)
    assert back.u == pytest.approx(u, rel=1e-9, abs=1e-12)
    assert back.v == pytest.approx(v, rel=1e-9, abs=1e-12)
    assert back.p == pytest.approx(p, rel=1e-11)


def test_conserved_to_primitive_rejects_bad_energy(gas):
    c = ConservedState(rho=1.0, mom_x=2.0, mom_y=0.0, energy=1.0)
    # kinetic energy alone is 2.0 > total, so p would be negative
    with pytest.raises(ValueError, match="pressure"):
        conserved_to_primitive(c, gas)
    for rho in (0.0, -1.0):
        with pytest.raises(ValueError, match="nonpositive density"):
            conserved_to_primitive(c._replace(rho=rho), gas)


def test_flux_oracle(gas):
    # hand-evaluated at rho=2, u=1, v=-2, p=3: E = 3/0.4 + 5 = 12.5
    s = PrimitiveState(rho=2.0, u=1.0, v=-2.0, p=3.0)
    fx, fy = physical_fluxes(s, gas)
    assert fx == pytest.approx((2.0, 5.0, -4.0, 15.5))
    assert fy == pytest.approx((-4.0, -4.0, 11.0, -31.0))


@given(
    rho=st.floats(0.1, 10.0, **finite),
    u=st.floats(-5.0, 5.0, **finite),
    v=st.floats(-5.0, 5.0, **finite),
    p=st.floats(0.1, 10.0, **finite),
)
def test_flux_structure(rho, u, v, p):
    """First flux components are the momenta; pressure enters only diagonally."""
    b = PhaseBounds(0.01, 50.0, 0.01, 50.0, 30.0, 1e-6)
    g = make_gas(1.4, b)
    s = PrimitiveState(rho=rho, u=u, v=v, p=p)
    fx, fy = physical_fluxes(s, g)
    assert fx[0] == pytest.approx(rho * u)
    assert fy[0] == pytest.approx(rho * v)
    assert fx[2] == pytest.approx(fy[1])
    assert fx[1] - rho * u * u == pytest.approx(p)
    assert fy[2] - rho * v * v == pytest.approx(p)


def test_phase_space_violations(gas):
    ok = in_phase_space(PrimitiveState(rho=1.0, u=1.0, v=0.0, p=1.0), gas)
    assert ok and ok.ok and ok.violations == ()

    r = in_phase_space(PrimitiveState(rho=0.01, u=1.0, v=0.0, p=1.0), gas)
    assert not r.ok and "density below floor" in r.violations
    r = in_phase_space(PrimitiveState(rho=30.0, u=1.0, v=0.0, p=1.0), gas)
    assert "density above ceiling" in r.violations
    r = in_phase_space(PrimitiveState(rho=1.0, u=1.0, v=0.0, p=0.001), gas)
    assert "pressure below floor" in r.violations
    r = in_phase_space(PrimitiveState(rho=1.0, u=1.0, v=0.0, p=30.0), gas)
    assert "pressure above ceiling" in r.violations
    r = in_phase_space(PrimitiveState(rho=1.0, u=20.0, v=0.0, p=1.0), gas)
    assert "speed above ceiling" in r.violations
    r = in_phase_space(PrimitiveState(rho=1.0, u=0.0, v=0.0, p=1.0), gas)
    assert "stagnation point" in r.violations
    r = in_phase_space(PrimitiveState(rho=19.0, u=1.0, v=0.0, p=0.005), gas)
    assert "internal energy below floor" in r.violations


def test_phase_report_collects_everything(gas):
    r = in_phase_space(PrimitiveState(rho=0.01, u=16.0, v=0.0, p=30.0), gas)
    assert len(r.violations) >= 3


def _edge_states(gas):
    """States on, just past and NaN at each bound of the box."""
    b = gas.bounds
    base = dict(rho=1.0, u=1.0, v=0.0, p=1.0)
    e_rho = gas.bounds.p_min / ((gas.gamma - 1.0) * b.e_min)  # rho with e = e_min at p_min
    edits = [
        dict(rho=b.rho_min), dict(rho=b.rho_max), dict(p=b.p_min), dict(p=b.p_max),
        dict(u=b.speed_max), dict(u=0.0), dict(u=1e-300), dict(p=b.p_min, rho=e_rho),
        dict(rho=math.nextafter(b.rho_min, 0.0)), dict(p=math.nextafter(b.p_max, math.inf)),
        dict(u=math.nextafter(b.speed_max, math.inf)), dict(u=math.nan), dict(v=math.nan),
        dict(u=math.inf), dict(rho=0.01, u=16.0, p=30.0),
    ]
    for edit in edits:
        yield PrimitiveState(**dict(base, **edit))


def _violations(s, gas):
    """The box rules one by one, in in_phase_space's order."""
    b = gas.bounds
    q = s.speed
    rules = (
        (s.rho < b.rho_min, "density below floor"),
        (s.rho > b.rho_max, "density above ceiling"),
        (s.p < b.p_min, "pressure below floor"),
        (s.p > b.p_max, "pressure above ceiling"),
        (s.internal_energy(gas) < b.e_min, "internal energy below floor"),
        (q > b.speed_max, "speed above ceiling"),
        (q == 0.0, "stagnation point"),
    )
    return tuple(name for broken, name in rules if broken)


def test_float_box_test_agrees_with_the_rules(gas):
    """NaN breaks no rule, so it passes; the float test sends it to the rules too."""
    for s in _edge_states(gas):
        bad = _violations(s, gas)
        assert in_phase_space(s, gas).violations == bad, s
        if inside_box(s.rho, s.u, s.v, s.p, gas):
            assert bad == (), s
        try:
            require_in_phase_space(s.rho, s.u, s.v, s.p, gas, "edge")
            message = None
        except ValueError as e:
            message = str(e)
        assert message == ("edge leaves phase space: " + "; ".join(bad) if bad else None), s
    assert not inside_box(1.0, math.nan, 0.0, 1.0, gas)
