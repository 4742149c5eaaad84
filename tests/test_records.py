"""The record contract: every record of the package is an immutable named tuple.

Each keeps the field order, defaults, repr, equality and hashing by fields of
the frozen dataclass it replaced, rejects assignment to a field, and builds
its _replace copies through the same checks as its constructor.
"""

import pytest

from sectorflow import cli, flowfield, gas, pmwave, polar, roe, shock, verify
from sectorflow.polar import TWO_PI

FORWARD = shock.Orientation.FORWARD

BOUNDS = gas.PhaseBounds(
    rho_min=0.1, rho_max=10.0, p_min=0.2, p_max=20.0, speed_max=5.0, e_min=0.01
)
GAS = gas.GasModel(gamma=1.4, bounds=BOUNDS, c_min=0.1, z_max=99.0)
STATE = gas.PrimitiveState(rho=1.0, u=0.5, v=-0.25, p=2.0)
POLAR = polar.PolarState(theta=0.3, N=1.5, L=0.5, rho=1.0, p=1.0)
SOLUTION = shock.ShockSolution(
    theta=0.3,
    orientation=FORWARD,
    upstream=POLAR,
    downstream=POLAR._replace(N=0.9, rho=1.6, p=1.5),
    z=0.5,
    mass_flux=1.5,
)
WAVE = pmwave.PMWave(
    orientation=FORWARD,
    theta_start=0.1,
    theta_end=0.2,
    thetas=(0.1, 0.2),
    rhos=(1.0, 0.9),
    Ls=(0.5, 0.4),
    drhos=(-0.1, -0.1),
    dLs=(-1.0, -1.0),
    s_ref=1.0,
    gamma=1.4,
)
DESCRIPTION = flowfield.FlowDescription(
    anchor_theta=0.0,
    anchor_state=STATE,
    events=(flowfield.ContactEvent(rho=2.0, L=0.3),),
    shooting=flowfield.Shooting(event_index=0, field="theta_end", bracket=(0.2, 1.2)),
)
FLOW = flowfield.FlowField(
    gas=GAS, anchor_theta=0.0, pieces=(flowfield.ConstantPiece(0.0, TWO_PI, STATE),)
)
SECTOR = flowfield.Sector(
    theta_start=0.5, theta_end=3.5, direction=FORWARD, theta_bar=2.0
)
PIECE = flowfield.ConstantPiece(theta_start=0.0, theta_end=0.5, state=STATE)
SHOCK_EVENT = flowfield.ShockEvent(
    orientation=FORWARD, theta=None, z=0.5, balance=False, L_sign=-1.0
)
ADMISSIBILITY = shock.AdmissibilityReport(checks=(("entropy increases", True, 0.5),))
STRUCTURE = verify.StructureReport(
    checks=(("sector turning", True, 1e-9),), sectors=(SECTOR,), jumps=((0.3, "shock", True, ""),)
)

# one record of each class, hashable fields throughout
RECORDS = [
    BOUNDS,
    GAS,
    STATE,
    gas.ConservedState(rho=1.0, mom_x=0.5, mom_y=-0.25, energy=5.2),
    gas.PhaseReport(ok=False, violations=("density below floor",)),
    POLAR,
    SOLUTION,
    shock.Classification(
        kind=shock.DiscontinuityKind.FORWARD_SHOCK, shock=SOLUTION, reason="why"
    ),
    ADMISSIBILITY,
    cli.FlowConfig(gas=GAS, description=DESCRIPTION, samples=720, formats=("json",)),
    PIECE,
    flowfield.ShockPoint(theta=0.3, orientation=FORWARD),
    flowfield.ContactPoint(theta=0.5),
    flowfield.PMPiece(wave=WAVE),
    FLOW,
    SHOCK_EVENT,
    flowfield.ContactEvent(rho=2.0, L=0.3),
    flowfield.PMEvent(orientation=FORWARD, theta_end=2.0, theta_start=1.5, steps=64),
    flowfield.Shooting(event_index=0, field="theta_end", bracket=(0.2, 1.2)),
    DESCRIPTION,
    SECTOR,
    flowfield.SBVDecomposition(
        jump_part=((0.5, (1.0, 0.0, 0.0, 0.0)),),
        lipschitz_part=((0.0, (1.0, 0.5, -0.25, 5.2)),),
        total_variation=1.0,
        tv_lipschitz=0.5,
        lipschitz_constant=2.0,
    ),
    WAVE,
    STRUCTURE,
    verify.AuditReport(
        weak_residual_max=(1e-12,) * 4,
        entropy_min=0.0,
        entropy_violations=(),
        smooth_residual_max=(1e-8,) * 4,
        admissibility=((0.3, "forward_shock", True, ""),),
        structure=STRUCTURE,
        sector_count=1,
    ),
    roe.RoeAverage(theta=0.3, u_bar=0.5, v_bar=-0.25, h_bar=3.0, c_bar=1.1, N_bar=0.2),
    roe.EigenSystem(
        eigenvalues=(-1.0, 0.2, 0.2, 1.4), right=((1.0, 0.0), (0.0, 1.0)), left=((1.0,),)
    ),
]

# the field order each record had as a frozen dataclass (the jump markers,
# which replaced the stored jump records, never were one)
FIELDS = {
    "PhaseBounds": ("rho_min", "rho_max", "p_min", "p_max", "speed_max", "e_min"),
    "GasModel": ("gamma", "bounds", "c_min", "z_max"),
    "PrimitiveState": ("rho", "u", "v", "p"),
    "ConservedState": ("rho", "mom_x", "mom_y", "energy"),
    "PhaseReport": ("ok", "violations"),
    "PolarState": ("theta", "N", "L", "rho", "p"),
    "ShockSolution": ("theta", "orientation", "upstream", "downstream", "z", "mass_flux"),
    "Classification": ("kind", "shock", "reason"),
    "AdmissibilityReport": ("checks",),
    "FlowConfig": ("gas", "description", "samples", "formats"),
    "ConstantPiece": ("theta_start", "theta_end", "state"),
    "ShockPoint": ("theta", "orientation"),
    "ContactPoint": ("theta",),
    "PMPiece": ("wave",),
    "FlowField": ("gas", "anchor_theta", "pieces"),
    "ShockEvent": ("orientation", "theta", "z", "balance", "L_sign"),
    "ContactEvent": ("rho", "L"),
    "PMEvent": ("orientation", "theta_end", "theta_start", "steps"),
    "Shooting": ("event_index", "field", "bracket"),
    "FlowDescription": ("anchor_theta", "anchor_state", "events", "shooting"),
    "Sector": ("theta_start", "theta_end", "direction", "theta_bar"),
    "SBVDecomposition": (
        "jump_part", "lipschitz_part", "total_variation", "tv_lipschitz", "lipschitz_constant",
    ),
    "PMWave": (
        "orientation", "theta_start", "theta_end", "thetas", "rhos", "Ls", "drhos", "dLs",
        "s_ref", "gamma",
    ),
    "StructureReport": ("checks", "sectors", "jumps"),
    "AuditReport": (
        "weak_residual_max", "entropy_min", "entropy_violations", "smooth_residual_max",
        "admissibility", "structure", "sector_count",
    ),
    "RoeAverage": ("theta", "u_bar", "v_bar", "h_bar", "c_bar", "N_bar"),
    "EigenSystem": ("eigenvalues", "right", "left"),
}

# records with cached views, which live in an instance dict
WITH_DICT = ("FlowField",)


def test_every_record_class_is_sampled_once():
    names = [type(r).__name__ for r in RECORDS]
    assert sorted(names) == sorted(FIELDS)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_contract(record):
    cls = type(record)
    assert cls._fields == FIELDS[cls.__name__]
    assert repr(record) == "%s(%s)" % (
        cls.__name__,
        ", ".join("%s=%r" % (f, getattr(record, f)) for f in cls._fields),
    )
    twin = cls(**{f: getattr(record, f) for f in cls._fields})
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    copy = record._replace()
    assert type(copy) is cls and copy == record and hash(copy) == hash(record)
    for f in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
    assert hasattr(record, "__dict__") == (cls.__name__ in WITH_DICT)


@pytest.mark.parametrize(
    "record, defaults",
    [
        (shock.Classification(shock.DiscontinuityKind.CONTACT), {"shock": None, "reason": None}),
        (flowfield.ShockEvent(FORWARD, theta=0.3), {"z": None, "balance": False, "L_sign": None}),
        (flowfield.PMEvent(FORWARD, 1.0), {"theta_start": None, "steps": None}),
        (flowfield.FlowDescription(0.0, STATE, ()), {"shooting": None}),
    ],
    ids=["Classification", "ShockEvent", "PMEvent", "FlowDescription"],
)
def test_record_defaults(record, defaults):
    assert {f: getattr(record, f) for f in defaults} == defaults


@pytest.mark.parametrize(
    "record, change, message",
    [
        (BOUNDS, {"p_max": 0.1}, "pressure bounds must satisfy 0 < p_min <= p_max"),
        (STATE, {"rho": 0.0}, "nonpositive density"),
        (PIECE, {"theta_end": 0.0}, "constant piece needs a nonempty interval"),
        (SHOCK_EVENT, {"theta": 0.3}, "shock event needs exactly one of theta, z, balance"),
    ],
    ids=["PhaseBounds", "PrimitiveState", "ConstantPiece", "ShockEvent"],
)
def test_replace_runs_the_constructor_check(record, change, message):
    fields = {**record._asdict(), **change}
    with pytest.raises(ValueError) as built:
        type(record)(**fields)
    assert str(built.value) == message
    with pytest.raises(ValueError) as copied:
        record._replace(**change)
    assert str(copied.value) == message
    with pytest.raises(ValueError) as made:
        type(record)._make(fields.values())
    assert str(made.value) == message


def test_cached_values_are_not_fields():
    flow = FLOW._replace()
    views = ("interval_pieces", "_starts", "jump_points", "shock_points", "contact_points")
    for name in views:
        getattr(flow, name)
    assert set(vars(flow)) == set(views)
    assert not set(vars(flow)) & set(flow._fields)
    assert flow == FLOW and hash(flow) == hash(FLOW) and repr(flow) == repr(FLOW)
    assert vars(flow._replace()) == {}
