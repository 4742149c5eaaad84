"""Config parsing, exit codes, and artifact contracts for the CLI."""

import functools
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from sectorflow import cli as cli_module
from sectorflow.cli import (
    MAX_SAMPLES,
    MAX_STEPS,
    ConfigError,
    export_csv,
    main,
    parse_config,
)
from sectorflow.flowfield import (
    ConstantPiece,
    ContactPoint,
    FlowField,
    ShockPoint,
    build_flow,
    evaluate,
)
from sectorflow.verify import evaluate_many
from sectorflow.gas import PrimitiveState, make_gas
from sectorflow.pmwave import PMWave
from sectorflow.polar import TWO_PI
from sectorflow.shock import Orientation, deflection_angle

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = """
{
  "gas": {"gamma": 1.4, "bounds": {"rho_min": 0.05, "rho_max": 20.0,
          "p_min": 0.05, "p_max": 20.0, "speed_max": 15.0, "e_min": 0.001}},
  "anchor": {"theta": 0.0, "rho": 1.0, "u": 2.0, "v": 0.7, "p": 1.3},
  "pieces": []
}
"""


def _doc(**overrides):
    doc = json.loads(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


# --------------------------------------------------------------- parsing


def test_minimal_config_parses():
    cfg = parse_config(MINIMAL)
    assert cfg.gas.gamma == 1.4
    assert cfg.samples == 720
    assert cfg.formats == ("json",)
    assert cfg.description.events == ()


def test_gamma_below_one_names_the_key():
    doc = json.loads(MINIMAL)
    doc["gas"]["gamma"] = 0.9
    with pytest.raises(ConfigError, match="gas.gamma"):
        parse_config(json.dumps(doc))


def test_unknown_keys_are_rejected_with_paths():
    doc = json.loads(MINIMAL)
    doc["gas"]["bounds"]["rho_floor"] = 0.1
    with pytest.raises(ConfigError, match=r"gas\.bounds\.rho_floor"):
        parse_config(json.dumps(doc))
    doc = json.loads(MINIMAL)
    doc["pieces"] = [{"kind": "contact", "rho": 1.0, "L": 0.5, "speed": 2.0}]
    with pytest.raises(ConfigError, match=r"pieces\[0\]\.speed"):
        parse_config(json.dumps(doc))


def test_degree_suffix_angles_normalize():
    doc = json.loads(MINIMAL)
    doc["anchor"]["theta"] = "90deg"
    cfg = parse_config(json.dumps(doc))
    assert cfg.description.anchor_theta == pytest.approx(math.pi / 2, abs=1e-15)
    doc["anchor"]["theta"] = "450deg"  # wraps into [0, 2 pi)
    cfg = parse_config(json.dumps(doc))
    assert cfg.description.anchor_theta == pytest.approx(math.pi / 2, abs=1e-12)


@pytest.mark.parametrize(
    "text, message",
    [
        ("abc", "anchor.theta: angles are numbers (radians) or strings with a 'deg' suffix"),
        ("xdeg", "anchor.theta: cannot parse 'xdeg' as an angle"),
        ("1e400deg", "anchor.theta: must be finite"),
    ],
)
def test_config_angle_strings_keep_their_messages(text, message):
    doc = json.loads(MINIMAL)
    doc["anchor"]["theta"] = text
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    assert str(info.value) == message


def test_config_angle_strings_ignore_surrounding_blanks():
    doc = json.loads(MINIMAL)
    doc["anchor"]["theta"] = "30deg"
    plain = parse_config(json.dumps(doc)).description.anchor_theta
    doc["anchor"]["theta"] = " 30deg "
    assert parse_config(json.dumps(doc)).description.anchor_theta == plain


def test_shock_piece_needs_exactly_one_mode():
    doc = json.loads(MINIMAL)
    doc["pieces"] = [{"kind": "shock", "orientation": "forward", "z": 0.5,
                      "balance": True}]
    with pytest.raises(ConfigError, match="exactly one of theta, z, balance"):
        parse_config(json.dumps(doc))


def test_solver_field_must_match_piece_kind():
    doc = json.loads(MINIMAL)
    doc["pieces"] = [{"kind": "shock", "orientation": "forward", "z": 0.5}]
    doc["solver"] = {"shoot": {"piece": 0, "field": "theta_end",
                               "bracket": [0.1, 0.2]}}
    with pytest.raises(ConfigError, match=r"solver\.shoot\.field"):
        parse_config(json.dumps(doc))


def test_malformed_json_is_a_config_error():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{not json")


def test_shipped_configs_parse():
    for name in ("uniform", "two_sector", "three_sector_g112", "three_sector_g14"):
        cfg = parse_config((CONFIGS / ("%s.json" % name)).read_text())
        assert cfg.description is not None


def test_shipped_two_sector_builds():
    cfg = parse_config((CONFIGS / "two_sector.json").read_text())
    flow = build_flow(cfg.gas, cfg.description)
    assert len(flow.shock_points) == 3


# ------------------------------------------------------------ exit codes


def test_verify_two_sector_exits_zero(capsys):
    code = main(["verify", str(CONFIGS / "two_sector.json")])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["sector_count"] == 2
    assert max(report["weak_residual_max"]) <= 1e-10


def test_verify_three_sector_heavy_gas_exits_zero(capsys):
    code = main(["verify", str(CONFIGS / "three_sector_g112.json")])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["sector_count"] == 3


def test_three_sector_at_standard_gamma_fails_closure(capsys):
    code = main(["verify", str(CONFIGS / "three_sector_g14.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "closure failure" in err


def test_underresolved_wave_fails_the_audit(tmp_path, capsys):
    # the flow builds and closes, but coarse wave sampling leaves
    # residuals the audit must notice: exit 1, not a build error
    doc = json.loads((CONFIGS / "two_sector.json").read_text())
    doc["pieces"][0]["steps"] = 2
    doc["pieces"][4]["steps"] = 2
    p = tmp_path / "coarse.json"
    p.write_text(json.dumps(doc))
    code = main(["verify", str(p)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "fail"


def test_bad_config_exits_three(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"gas": {}}')
    assert main(["verify", str(p)]) == 3
    assert main(["verify", str(tmp_path / "missing.json")]) == 3
    assert "config error" in capsys.readouterr().err


def test_unknown_flags_exit_three(capsys):
    assert main(["shock-solve", "--mach", "2", "--gamma", "1.4"]) == 3
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_pm_trace_rejects_nonpositive_steps(capsys, steps):
    assert main(["pm-trace", "--gamma", "1.4", "--mach", "2.0",
                 "--steps", steps]) == 3
    captured = capsys.readouterr()
    assert "config error: --steps" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("samples", ["-5", "1"])
def test_export_rejects_too_few_samples(capsys, tmp_path, samples):
    out = tmp_path / "u.csv"
    assert main(["export", str(CONFIGS / "uniform.json"), "--format", "csv",
                 "--samples", samples, "--out", str(out)]) == 3
    assert "config error: --samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "path, ceiling",
    [(("pieces", 0, "steps"), MAX_STEPS), (("output", "samples"), MAX_SAMPLES)],
    ids=["steps", "samples"],
)
def test_config_counts_have_a_ceiling(path, ceiling):
    """Parsed only: a march or export this large is never started."""
    doc = json.loads((CONFIGS / "two_sector.json").read_text())
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = ceiling
    parse_config(json.dumps(doc))
    target[last] = ceiling + 1
    key = "pieces[0].steps" if last == "steps" else "output.samples"
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    assert str(info.value) == "%s: must be at most %d" % (key, ceiling)


@pytest.mark.parametrize(
    "argv, flag, ceiling",
    [
        (["pm-trace", "--gamma", "1.4", "--mach", "2"], "--steps", MAX_STEPS),
        # checked before the flow is built
        (["export", str(CONFIGS / "uniform.json"), "--format", "csv"], "--samples", MAX_SAMPLES),
    ],
    ids=["pm-trace", "export"],
)
def test_count_flags_have_a_ceiling(capsys, tmp_path, argv, flag, ceiling):
    out = tmp_path / "out.csv"
    assert main(argv + [flag, str(ceiling + 1), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "config error: %s: must be at most %d\n" % (flag, ceiling)
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["max-turn", "--gamma", "1.4", "--mach", "inf"], "--mach"),
        (["max-turn", "--gamma", "1.4", "--mach", "1e160"], "--mach"),
        (["max-turn", "--gamma", "inf"], "--gamma"),
        (["shock-solve", "--gamma", "1.4", "--mach", "inf", "--deflection", "10deg"], "--mach"),
        (["shock-solve", "--gamma", "1.4", "--mach", "1e160", "--deflection", "10deg"], "--mach"),
        (["shock-solve", "--gamma", "1.4", "--mach", "2", "--deflection", "nan"], "--deflection"),
        (["shock-solve", "--gamma", "1.4", "--mach", "2", "--deflection", "infdeg"], "--deflection"),
        (["pm-trace", "--gamma", "1.4", "--mach", "2", "--span", "inf"], "--span"),
        (["pm-trace", "--gamma", "1.4", "--mach", "2", "--span", "10"], "--span"),
        (["pm-trace", "--gamma", "1.4", "--mach", "2", "--span", "1e300"], "--span"),
    ],
)
def test_nonfinite_flags_exit_three_and_name_the_flag(capsys, argv, flag):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: %s: " % flag)
    assert captured.out == ""


def _two_sector_with(tmp_path, path, value):
    doc = json.loads((CONFIGS / "two_sector.json").read_text())
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(doc))  # NaN and Infinity are written as JSON extensions
    return p


@pytest.mark.parametrize(
    "path, value, key",
    [
        (("anchor", "u"), math.nan, "anchor.u"),
        (("pieces", 1, "z"), math.inf, "pieces[1].z"),
        (("gas", "bounds", "p_max"), math.inf, "gas.bounds.p_max"),
        (("anchor", "v"), 10 ** 400, "anchor.v"),
        # the shot wave's end, which shooting would overwrite
        (("pieces", 0, "theta_end"), "nandeg", "pieces[0].theta_end"),
        (("pieces", 4, "theta_end"), "infdeg", "pieces[4].theta_end"),
    ],
    ids=["nan", "inf", "inf-bound", "huge-int", "nandeg-shot", "infdeg"],
)
def test_nonfinite_config_numbers_exit_three(tmp_path, capsys, path, value, key):
    assert main(["build", str(_two_sector_with(tmp_path, path, value))]) == 3
    captured = capsys.readouterr()
    assert captured.err == "config error: %s: must be finite\n" % key
    assert captured.out == ""


@pytest.mark.parametrize(
    "path, value, line",
    [
        (("gas",), 1.4, "gas: expected an object"),
        (("gas", "gamma"), "1.4", "gas.gamma: expected a number"),
        (("gas", "bounds", "rho_min"), 30.0,
         "gas.bounds: density bounds must satisfy 0 < rho_min <= rho_max"),
        (("anchor", "rho"), 0, "anchor: nonpositive density"),
        (("pieces", 1, "balance"), 1, "pieces[1].balance: expected true or false"),
        (("pieces", 1, "L_sign"), 2, "pieces[1].L_sign: must be 1 or -1"),
        (("pieces", 0, "kind"), "fan", "pieces[0].kind: unknown piece kind 'fan'"),
        (("pieces", 0, "steps"), 64.0, "pieces[0].steps: expected an integer"),
        (("pieces", 0, "orientation"), "up",
         "pieces[0].orientation: orientation must be 'forward' or 'backward'"),
        (("pieces", 2, "rho"), -0.8, "pieces[2].rho: must be positive"),
        (("pieces",), {}, "pieces: expected a list"),
        (("solver", "shoot", "piece"), 9, "solver.shoot.piece: no piece with index 9"),
        (("solver", "shoot", "field"), "rho",
         "solver.shoot.field: must be one of theta, theta_end, z"),
        # a field the shock does not declare: z locates pieces[1], and a
        # balance shock declares neither theta nor z
        (("solver", "shoot"), {"piece": 1, "field": "theta", "bracket": [1.8, 2.1]},
         "solver.shoot.field: piece 1 has no adjustable 'theta'"),
        (("solver", "shoot"), {"piece": 5, "field": "z", "bracket": [0.1, 0.5]},
         "solver.shoot.field: piece 5 has no adjustable 'z'"),
        (("solver", "shoot", "bracket"), [0.41], "solver.shoot.bracket: expected [low, high]"),
        (("solver", "shoot", "bracket"), [0.57, 0.41],
         "solver.shoot.bracket: low bound must be below high"),
        (("output", "formats"), "csv", "output.formats: expected a list"),
        (("output", "formats"), ["png"],
         "output.formats: unknown format 'png' (known: csv, json, svg)"),
        (("output", "formats"), ["csv", "csv", "svg"], "output.formats: duplicate format 'csv'"),
    ],
)
def test_config_errors_name_the_key(tmp_path, capsys, path, value, line):
    assert main(["build", str(_two_sector_with(tmp_path, path, value))]) == 3
    captured = capsys.readouterr()
    assert captured.err == "config error: %s\n" % line
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags, line",
    [
        (["--rho", "0"], "pm-trace: nonpositive density"),
        (["--span", "-1"], "--span: must be positive"),
        (["--mach", "1"], "--mach: must exceed 1 (the wave edge is sonic)"),
        (["--gamma", "1"], "--gamma: must exceed 1"),
    ],
)
def test_pm_trace_flag_errors_name_the_flag(capsys, flags, line):
    assert main(["pm-trace", "--gamma", "1.4", "--mach", "2"] + flags) == 3
    captured = capsys.readouterr()
    assert captured.err == "config error: %s\n" % line
    assert captured.out == ""


def test_anchor_outside_the_box_fails_before_any_march(tmp_path, capsys, monkeypatch):
    from sectorflow import flowfield

    marches = []
    march = flowfield._march
    monkeypatch.setattr(flowfield, "_march", lambda *a: marches.append(a) or march(*a))
    config = _two_sector_with(tmp_path, ("anchor", "p"), 0.01)
    assert main(["build", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "construction failure: piece -1: anchor state leaves phase space: "
        "pressure below floor\n"
    )
    assert captured.out == ""
    assert marches == []


@pytest.mark.parametrize(
    "argv",
    [
        ["pm-trace", "--gamma", "1.4", "--mach", "2", "--span", "6"],
        ["pm-trace", "--gamma", "1.6666666666666667", "--mach", "4", "--span", "1",
         "--orientation", "backward"],
    ],
)
def test_pm_trace_reaching_vacuum_is_a_construction_failure(capsys, argv):
    # the fan's density falls to zero before the end angle
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("construction failure: ")
    assert "vacuum" in captured.err
    assert captured.out == ""


def test_huge_but_squarable_mach_still_solves(capsys):
    # 1e150 squared is finite, so the shock algebra still answers
    assert main(["max-turn", "--gamma", "1.4", "--mach", "1e150"]) == 0
    assert ": 45.5847 deg (0.795602953 rad)" in capsys.readouterr().out
    assert main(["shock-solve", "--gamma", "1.4", "--mach", "1e150",
                 "--deflection", "10deg"]) == 0
    assert "= 12.0350 deg (weak branch)" in capsys.readouterr().out


def test_detached_deflection_exits_one(capsys):
    code = main(["shock-solve", "--mach", "2", "--deflection", "40deg",
                 "--gamma", "1.4"])
    assert code == 1
    assert "detached" in capsys.readouterr().err


def test_subsonic_shock_request_is_a_config_error(capsys):
    """The solver's other refusals stay exit 3, not the detached exit 1."""
    assert main(["shock-solve", "--mach", "0.5", "--deflection", "10deg", "--gamma", "1.4"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "config error: shock-solve: upstream Mach number must exceed 1\n"
    assert captured.out == ""


# --------------------------------------------------------------- solvers


def test_max_turn_reports_the_arcsin_limit(capsys):
    assert main(["max-turn", "--gamma", "1.4"]) == 0
    out = capsys.readouterr().out
    reported = float(out.split("deg")[0].split(":")[1])
    assert reported == pytest.approx(math.degrees(math.asin(1 / 1.4)), abs=1e-3)
    assert abs(reported - 45.585) < 0.15
    assert "detachment" in out

    assert main(["max-turn", "--gamma", "1.12"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("deg")[0].split(":")[1]) > 60.0


def test_shock_solve_matches_the_deflection_relation(capsys):
    assert main(["shock-solve", "--mach", "2", "--deflection", "10deg",
                 "--branch", "weak", "--gamma", "1.4"]) == 0
    out = capsys.readouterr().out
    theta_s = float(out.split("rad")[0].split(":")[1])
    assert math.degrees(theta_s) == pytest.approx(39.314, abs=5e-3)
    gas = make_gas(1.4, __import__("sectorflow").gas.PhaseBounds(
        rho_min=1e-3, rho_max=1e3, p_min=1e-3, p_max=1e3, speed_max=1e3,
        e_min=1e-9))
    assert deflection_angle(2.0, theta_s, gas) == pytest.approx(
        math.radians(10.0), abs=1e-9
    )


def test_pm_trace_is_sonic_isentropic_and_turning(capsys):
    assert main(["pm-trace", "--gamma", "1.4", "--mach", "2.0",
                 "--span", "12deg"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    header = out[0].split(",")
    assert header == "theta,rho,u,v,p,N,L,c,mach_n,s,phi".split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in out[1:]]
    assert len(rows) >= 2
    for r in rows:
        assert abs(r["mach_n"]) == pytest.approx(1.0, abs=1e-9)
        assert r["s"] == pytest.approx(rows[0]["s"], rel=1e-10)
    phis = [r["phi"] for r in rows]
    assert all(b > a for a, b in zip(phis, phis[1:]))


@pytest.mark.parametrize("mach", ["2e4", "5e4"])
def test_backward_pm_trace_starts_sonic_at_high_mach(capsys, mach):
    # the start angle is -asin(1/M) itself: wrapped by 2 pi, its rounding
    # moved N by about M 4e-16 c, past the wave's sonic start test
    argv = ["pm-trace", "--gamma", "1.4", "--mach", mach, "--orientation", "backward",
            "--span", "1e-6", "--steps", "1"]
    assert main(argv) == 0
    sys.path.insert(0, str(CONFIGS.parent / "bench"))
    try:
        import checks
    finally:
        sys.path.remove(str(CONFIGS.parent / "bench"))
    checks.check_pm_trace(capsys.readouterr().out, 1.4)


# -------------------------------------------------------------- artifacts


def test_uniform_csv_has_constant_rows(capsys, tmp_path):
    out = tmp_path / "u.csv"
    code = main(["export", str(CONFIGS / "uniform.json"), "--format", "csv",
                 "--samples", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,rho,u,v,p,N,L,c,mach_n,s,phi"
    assert len(lines) == 5
    for line in lines[1:]:
        cells = line.split(",")
        assert [cells[1], cells[2], cells[3], cells[4]] == ["1.0", "2.0", "0.7", "1.3"]


def test_csv_round_trip_recovers_boundaries(tmp_path):
    cfg = parse_config((CONFIGS / "two_sector.json").read_text())
    flow = build_flow(cfg.gas, cfg.description)
    n = 720
    text = export_csv(flow, samples=n)
    lines = text.strip().splitlines()[1:]
    # float() on every cell: array scalars would print as np.float64(...)
    rows = [list(map(float, line.split(","))) for line in lines]
    assert len(rows) == n and all(len(r) == 11 for r in rows)
    spacing = TWO_PI / n

    found = []
    for a, b in zip(rows, rows[1:]):
        jump = max(
            abs(x - y) / max(1.0, abs(x), abs(y))
            for x, y in zip(a[1:5], b[1:5])
        )
        if jump > 1e-6:
            found.append(0.5 * (a[0] + b[0]))
    true = sorted(p.theta for p in flow.jump_points)
    recovered = []
    for t in true:
        near = [f for f in found if abs(f - t) <= spacing]
        if near:
            recovered.append(t)
    assert recovered == true


def _array_csv_columns(gamma, theta, rho, u, v, p):
    """Every CSV column computed with numpy on arrays of states."""
    st, ct = np.sin(theta), np.cos(theta)
    N, L = u * st - v * ct, u * ct + v * st
    c = np.sqrt(gamma * p / rho)
    phi = np.arctan2(-N * ct + L * st, N * st + L * ct)
    phi[phi == -math.pi] = math.pi
    return (theta, rho, u, v, p, N, L, c, N / c, p / rho ** gamma, phi)


def _assert_cells_within_2ulp(text, columns):
    rows = text.splitlines()[1:]
    assert len(rows) == len(columns[0])
    for row, expected in zip(rows, zip(*(col.tolist() for col in columns))):
        for cell, want in zip(row.split(","), expected):
            got = float(cell)
            assert abs(got - want) <= 2 * math.ulp(max(abs(got), abs(want))), (row, want)


@pytest.mark.parametrize("name", ["two_sector", "three_sector_g112", "uniform"])
def test_csv_cells_match_the_array_formulas(name):
    cfg = parse_config((CONFIGS / ("%s.json" % name)).read_text())
    flow = build_flow(cfg.gas, cfg.description)
    theta = flow.anchor_theta + TWO_PI * np.arange(cfg.samples) / cfg.samples
    columns = _array_csv_columns(cfg.gas.gamma, theta, *evaluate_many(flow, theta))
    _assert_cells_within_2ulp(export_csv(flow, cfg.samples), columns)


def test_pm_trace_csv_cells_match_the_array_formulas(capsys):
    assert main(["pm-trace", "--gamma", "1.12", "--mach", "3", "--span", "20deg"]) == 0
    text = capsys.readouterr().out
    states = np.array([[float(x) for x in row.split(",")[:5]] for row in text.splitlines()[1:]])
    _assert_cells_within_2ulp(text, _array_csv_columns(1.12, *states.T))


def _per_row_csv_text(gas, theta, rho, u, v, p):
    """The CSV ring as written before runs of one state shared their cells: every cell of every row."""
    gamma = gas.gamma
    lines = [cli_module.CSV_COLUMNS]
    for t, r, x, y, q in zip(theta, rho, u, v, p):
        st, ct = math.sin(t), math.cos(t)
        N, L = x * st - y * ct, x * ct + y * st
        c = math.sqrt(gamma * q / r)
        phi = math.atan2(-N * ct + L * st, N * st + L * ct)
        if phi == -math.pi:
            phi = math.pi
        cells = (t, r, x, y, q, N, L, c, N / c, q / r ** gamma, phi)
        lines.append(",".join(map(repr, cells)))
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _shipped_flow(name, steps=None):
    """A shipped config's flow, its waves marched in `steps` steps when given."""
    doc = json.loads((CONFIGS / ("%s.json" % name)).read_text())
    for piece in doc["pieces"]:
        if piece["kind"] == "wave" and steps is not None:
            piece["steps"] = steps
    cfg = parse_config(json.dumps(doc))
    return build_flow(cfg.gas, cfg.description)


@pytest.mark.parametrize("samples", [9, 360, 720, 1440])
@pytest.mark.parametrize(
    "name, steps",
    [("two_sector", 16), ("two_sector", 64), ("three_sector_g112", None), ("uniform", None)],
)
def test_csv_ring_is_bitwise_the_per_row_writer(name, steps, samples):
    flow = _shipped_flow(name, steps)
    theta = [flow.anchor_theta + TWO_PI * k / samples for k in range(samples)]
    states = [evaluate(flow, t) for t in theta]
    want = _per_row_csv_text(flow.gas, theta, *zip(*states))
    assert export_csv(flow, samples) == want
    assert cli_module._csv_text(flow.gas, theta, states) == want


def test_csv_rows_of_equal_but_distinct_states_keep_their_own_cells():
    gas = parse_config(MINIMAL).gas
    states = [PrimitiveState(1.0, 0.0, 2.0, 1.0), PrimitiveState(1.0, -0.0, 2.0, 1.0)]
    assert states[0] == states[1] and states[0] is not states[1]
    theta = [0.25, 0.5]
    text = cli_module._csv_text(gas, theta, states)
    assert text == _per_row_csv_text(gas, theta, *zip(*states))
    assert [row.split(",")[2] for row in text.splitlines()[1:]] == ["0.0", "-0.0"]


@pytest.mark.parametrize("name, steps, runs", [("two_sector", 37, 54), ("uniform", None, 1)])
def test_csv_ring_derives_each_run_of_one_state_once(monkeypatch, name, steps, runs):
    flow = _shipped_flow(name, steps)
    theta = [flow.anchor_theta + TWO_PI * k / 900 for k in range(900)]
    states = [evaluate(flow, t) for t in theta]
    assert 1 + sum(b is not a for a, b in zip(states, states[1:])) == runs
    calls = []

    def counted(x):
        calls.append(x)
        return math.sqrt(x)

    monkeypatch.setattr(cli_module, "sqrt", counted)
    export_csv(flow, 900)
    assert len(calls) == runs


def test_svg_is_selfcontained_xml(tmp_path):
    out = tmp_path / "f.svg"
    assert main(["export", str(CONFIGS / "two_sector.json"), "--format", "svg",
                 "--out", str(out)]) == 0
    text = out.read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert root.get("width") == "800" and root.get("height") == "800"
    assert "http" not in text.replace("http://www.w3.org/2000/svg", "")
    # one ray from the origin per discontinuity: 3 shocks + 2 contacts
    rays = [l for l in text.splitlines() if l.startswith('<line x1="0" y1="0"')]
    assert len(rays) == 5
    assert sum('stroke="#c0392b"' in r for r in rays) == 3
    assert sum("stroke-dasharray" in r for r in rays) == 2


def test_svg_of_a_wave_wider_than_pi(gas):
    """A fan past pi takes the large arc; the head and legend are written once."""
    front = PrimitiveState(rho=1.0, u=2.0, v=0.5, p=1.0)
    back = PrimitiveState(rho=1.5, u=1.0, v=0.5, p=2.0)
    wave = PMWave(
        orientation=Orientation.FORWARD, theta_start=1.0, theta_end=4.5, thetas=(1.0, 4.5),
        rhos=(1.5, 1.5), Ls=(0.5, 0.5), drhos=(0.0, 0.0), dLs=(0.0, 0.0), s_ref=1.0, gamma=1.4,
    )
    flow = FlowField(gas=gas, anchor_theta=0.0, pieces=(
        ConstantPiece(0.0, 0.5, front), ShockPoint(0.5, Orientation.FORWARD),
        ConstantPiece(0.5, 1.0, back), wave, ConstantPiece(4.5, 5.0, back),
        ContactPoint(5.0), ConstantPiece(5.0, TWO_PI, front),
    ))
    text = cli_module.export_svg(flow)
    assert text.startswith("<svg ") and text.endswith("</svg>\n")
    for once in ("<svg ", "<desc>", "<defs>", 'r="330.00"', "</svg>", ">shock<", ">wave fan<"):
        assert text.count(once) == 1, once
    root = ET.fromstring(text)
    svg = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(svg + "text")) == 4

    (fan,) = root.findall(svg + "path")
    assert fan.get("d").split()[7:10] == ["0", "1", "0"]  # rotation, large-arc, sweep

    rays = [el.attrib for el in root.findall(svg + "line") if el.get("x1") == "0"]
    assert len(rays) == 2
    for ray, theta, width, dash in zip(rays, (0.5, 5.0), ("2.5", "1.5"), (None, "7 5")):
        assert (ray["x2"], ray["y2"]) == ("%.2f" % (330 * math.cos(theta)),
                                          "%.2f" % (-330 * math.sin(theta)))
        assert (ray["stroke-width"], ray.get("stroke-dasharray")) == (width, dash)
    assert [ray["stroke"] for ray in rays] == ["#c0392b", "#555"]
    arrows = [el for el in root.findall(svg + "line") if el.get("marker-end")]
    assert len(arrows) == len(flow.interval_pieces) + 1  # and the legend's


def test_export_writes_atomically(tmp_path):
    out = tmp_path / "flow.json"
    assert main(["export", str(CONFIGS / "uniform.json"), "--format", "json",
                 "--out", str(out)]) == 0
    assert out.exists()
    assert not (tmp_path / "flow.json.tmp").exists()
    json.loads(out.read_text())


@pytest.mark.parametrize(
    "argv, out",
    [
        (["verify", str(CONFIGS / "uniform.json"), "--out"], "missing/report.json"),
        (["analyze", str(CONFIGS / "uniform.json"), "--out"], "missing/analysis.json"),
        (["export", str(CONFIGS / "uniform.json"), "--format", "csv", "--out"], "missing/e.csv"),
        (["pm-trace", "--gamma", "1.4", "--mach", "2", "--out"], "missing/trace.csv"),
        (["verify", str(CONFIGS / "uniform.json"), "--out"], "."),
        (["build", str(CONFIGS / "uniform.json"), "--out"], "taken"),
    ],
)
def test_unwritable_output_is_a_config_error(tmp_path, capsys, monkeypatch, argv, out):
    """A missing directory, a directory or a file in the way: exit 3, one line, no .tmp left."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    assert main(argv + [out]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: %s: cannot write: " % out)
    assert captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_build_leaves_no_artifact_when_one_cannot_be_written(tmp_path, capsys):
    """The JSON artifact's path is a directory: exit 3, no stdout, the CSV written before it removed."""
    out = tmp_path / "out"
    (out / "two_sector.json").mkdir(parents=True)
    assert main(["build", str(CONFIGS / "two_sector.json"), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: %s: cannot write: Is a directory\n" % (
        out / "two_sector.json"
    )
    assert [p.name for p in out.iterdir()] == ["two_sector.json"]
    assert list((out / "two_sector.json").iterdir()) == []


def test_outputs_are_byte_deterministic(tmp_path):
    pairs = []
    for k in (1, 2):
        csvp = tmp_path / ("a%d.csv" % k)
        jsonp = tmp_path / ("a%d.json" % k)
        main(["export", str(CONFIGS / "two_sector.json"), "--format", "csv",
              "--out", str(csvp)])
        main(["verify", str(CONFIGS / "two_sector.json"), "--out", str(jsonp)])
        pairs.append((csvp.read_bytes(), jsonp.read_bytes()))
    assert pairs[0][0] == pairs[1][0]
    assert pairs[0][1] == pairs[1][1]


def test_build_writes_declared_formats(tmp_path, capsys):
    code = main(["build", str(CONFIGS / "uniform.json"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "built flow" in out
    assert (tmp_path / "uniform.csv").exists()
    assert (tmp_path / "uniform.json").exists()


def test_analyze_reports_sectors_and_variation(capsys):
    assert main(["analyze", str(CONFIGS / "three_sector_g112.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["sectors"]) == 3
    total_turn = sum(s["turn"] for s in doc["sectors"])
    assert total_turn == pytest.approx(-math.pi, abs=1e-9)
    assert doc["total_variation"] == pytest.approx(3496.518326026, rel=1e-6)
    assert doc["tv_lipschitz"] == pytest.approx(0.0, abs=1e-6)


def _python(code):
    """Run code in a fresh interpreter that imports this source tree."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


def test_cli_import_does_not_load_scipy():
    done = _python("import sectorflow.cli, sys; assert 'scipy' not in sys.modules")
    assert done.returncode == 0, done.stderr


def _main_returns(argv, code):
    return "from sectorflow.cli import main; assert main(%r) == %d" % (argv, code)


def _main_prints(argv, code, stderr):
    return (
        "import contextlib, io\n"
        "from sectorflow.cli import main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        "    assert main(%r) == %d\n"
        "assert err.getvalue() == %r, err.getvalue()" % (argv, code, stderr)
    )


SHOCK_SIDE_FAILURE = (
    "closure failure: flow does not close up around the circle (no sign change "
    "of the seam mismatch inside the shooting bracket; undefined at 65 of 65 "
    "scan points: 65x piece 1: downstream state leaves phase space: pressure "
    "above ceiling)\n"
)


# modules a cold path must not load: numpy and dataclasses (with the inspect
# it pulls in) for all of them, and the flow builder and json for the solver
# commands (pm-trace needs the wave integrator)
NO_NUMPY = ("numpy", "dataclasses", "inspect")
NO_FLOWFIELD = NO_NUMPY + ("sectorflow.flowfield", "json")
NO_FLOW_BUILDER = NO_FLOWFIELD + ("sectorflow.pmwave",)


@pytest.mark.parametrize(
    "statement, unloaded",
    [
        ("import sectorflow", NO_FLOW_BUILDER),
        ("import sectorflow.cli", NO_FLOW_BUILDER),
        (_main_returns(["max-turn", "--gamma", "1.4", "--mach", "2"], 0), NO_FLOW_BUILDER),
        (_main_returns(["max-turn", "--gamma", "1.4"], 0), NO_FLOW_BUILDER),
        (_main_returns(["max-turn", "--gamma", "0.9"], 3), NO_FLOW_BUILDER),
        (
            _main_returns(
                ["shock-solve", "--gamma", "1.4", "--mach", "2", "--deflection", "10deg"], 0
            ),
            NO_FLOW_BUILDER,
        ),
        (
            _main_returns(
                ["shock-solve", "--gamma", "1.4", "--mach", "2", "--deflection", "40deg"], 1
            ),
            NO_FLOW_BUILDER,
        ),
        (_main_returns(["pm-trace", "--gamma", "1.4", "--mach", "2"], 0), NO_FLOWFIELD),
        (
            _main_prints(
                ["pm-trace", "--gamma", "1.4", "--mach", "1.2", "--span", "6"],
                2,
                "construction failure: wave reaches vacuum before its end angle\n",
            ),
            NO_FLOWFIELD,
        ),
        # a build that fails closure never reaches the array code, with
        # waves too: the closed-form scan, Brent and the closing march
        (_main_returns(["build", str(CONFIGS / "three_sector_g14.json")], 2), NO_NUMPY),
        (_main_returns(["build", "SCALED_TWO_SECTOR"], 2), NO_NUMPY),
        # every scan point fails on a shock side, checked on floats
        (_main_prints(["build", "LOW_CEILING_TWO_SECTOR"], 2, SHOCK_SIDE_FAILURE), NO_NUMPY),
        # a flow that closes, where nothing asks for the audit: the summary's
        # sectors, the CSV ring, the SVG and the analysis read evaluate
        (_main_returns(["build", str(CONFIGS / "two_sector.json")], 0), NO_NUMPY),
        (_main_returns(["build", "TMP_DIR/csv_svg.json", "--out", "TMP_DIR/out"], 0), NO_NUMPY),
        (_main_returns(["analyze", str(CONFIGS / "two_sector.json")], 0), NO_NUMPY),
        (
            _main_returns(
                ["export", str(CONFIGS / "two_sector.json"), "--format", "csv",
                 "--out", "TMP_DIR/flow.csv"],
                0,
            ),
            NO_NUMPY,
        ),
        (
            _main_returns(
                ["export", str(CONFIGS / "two_sector.json"), "--format", "svg",
                 "--out", "TMP_DIR/flow.svg"],
                0,
            ),
            NO_NUMPY,
        ),
    ],
    ids=[
        "package",
        "cli",
        "max-turn",
        "max-turn-limit",
        "max-turn-bad-flag",
        "shock-solve",
        "shock-solve-detached",
        "pm-trace",
        "pm-trace-failure",
        "build-unclosed",
        "build-unclosed-waves",
        "build-unclosed-shock-sides",
        "build",
        "build-out-csv-svg",
        "analyze",
        "export-csv",
        "export-svg",
    ],
)
def test_cold_paths_do_not_load_numpy(statement, unloaded, tmp_path):
    doc = json.loads((CONFIGS / "two_sector.json").read_text())
    doc["anchor"]["u"] *= 1.04  # the seam state never regains the anchor speed
    doc["anchor"]["v"] *= 1.04
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(doc))
    doc = json.loads((CONFIGS / "two_sector.json").read_text())
    doc["gas"]["bounds"]["p_max"] = 1.5  # below the first shock's back pressure
    low_ceiling = tmp_path / "low_ceiling.json"
    low_ceiling.write_text(json.dumps(doc))
    doc = json.loads((CONFIGS / "two_sector.json").read_text())
    doc["output"]["formats"] = ["csv", "svg"]
    (tmp_path / "csv_svg.json").write_text(json.dumps(doc))
    statement = statement.replace("TMP_DIR", str(tmp_path))
    statement = statement.replace("SCALED_TWO_SECTOR", str(scaled))
    statement = statement.replace("LOW_CEILING_TWO_SECTOR", str(low_ceiling))
    done = _python(
        "import sys\n%s\nloaded = set(sys.modules) & %r\nassert not loaded, loaded"
        % (statement, set(unloaded))
    )
    assert done.returncode == 0, done.stderr


def test_package_names_resolve_lazily():
    import sectorflow
    from sectorflow import flowfield, gas

    for name in sectorflow.__all__:
        assert getattr(sectorflow, name) is not None, name
    assert sectorflow.build_flow is flowfield.build_flow
    assert sectorflow.GasModel is gas.GasModel
    assert set(sectorflow.__all__) <= set(dir(sectorflow))
    with pytest.raises(AttributeError):
        sectorflow.no_such_name
    namespace = {}
    exec("from sectorflow import *", namespace)
    assert set(sectorflow.__all__) <= set(namespace)
    assert namespace["full_audit"] is sectorflow.verify.full_audit


def test_package_version_is_the_project_version():
    import sectorflow

    tomllib = pytest.importorskip("tomllib")  # the standard library's from Python 3.11
    project = tomllib.loads((CONFIGS.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert sectorflow.__version__ == project["project"]["version"]


def _two_sector_flow():
    cfg = parse_config((CONFIGS / "two_sector.json").read_text())
    return cfg, build_flow(cfg.gas, cfg.description)


def test_flow_entry_points_run_in_a_process_that_never_imports_flowfield(tmp_path):
    out = tmp_path / "out.txt"
    done = _python(
        "from pathlib import Path\n"
        "from sectorflow import cli\n"
        "from sectorflow.cli import parse_config, export_csv, export_svg, analyze_to_document\n"
        "cfg = parse_config(Path(%r).read_text())\n"
        "flow = cli.build_flow(cfg.gas, cfg.description)\n"
        "doc = analyze_to_document(flow, cfg.samples)\n"
        "Path(%r).write_text(export_csv(flow, cfg.samples) + export_svg(flow) + repr(doc))\n"
        % (str(CONFIGS / "two_sector.json"), str(out))
    )
    assert done.returncode == 0, done.stderr
    cfg, flow = _two_sector_flow()
    doc = cli_module.analyze_to_document(flow, cfg.samples)
    assert out.read_text() == (
        export_csv(flow, cfg.samples) + cli_module.export_svg(flow) + repr(doc)
    )


def test_cli_answers_the_flowfield_names():
    from sectorflow import flowfield

    assert cli_module.evaluate is flowfield.evaluate
    assert cli_module.bv_decompose is flowfield.bv_decompose
    for name in cli_module._FLOWFIELD_NAMES:
        assert getattr(cli_module, name) is getattr(flowfield, name), name
    with pytest.raises(AttributeError):
        cli_module.no_such_name


@pytest.mark.parametrize("entry", ["export_csv", "export_svg", "analyze_to_document"])
def test_each_flow_entry_point_binds_the_flowfield_names(monkeypatch, entry):
    from sectorflow import flowfield

    _, flow = _two_sector_flow()
    for name in cli_module._FLOWFIELD_NAMES:
        monkeypatch.delitem(vars(cli_module), name)
    getattr(cli_module, entry)(flow)
    for name in cli_module._FLOWFIELD_NAMES:
        assert vars(cli_module)[name] is getattr(flowfield, name), name


def test_exporters_call_evaluate_and_bv_decompose_through_cli(monkeypatch):
    """A wrapper set on cli's name, as the traced benchmark sets one, sees every call."""
    cfg, flow = _two_sector_flow()
    calls = []
    for name in ("evaluate", "bv_decompose"):
        fn = getattr(cli_module, name)
        monkeypatch.setattr(
            cli_module, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k)
        )
    cli_module.export_svg(flow)
    assert calls == ["evaluate"] * len(flow.interval_pieces)
    calls.clear()
    cli_module.analyze_to_document(flow, cfg.samples)
    assert calls == ["bv_decompose"]


def _reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


def test_verify_writes_a_nan_residual_as_null(tmp_path, capsys):
    # uniform anchored at rho = p = 1e-300 under floors of 1e-320: p / rho^gamma
    # is infinite, and the entropy productions are NaN
    doc = json.loads((CONFIGS / "uniform.json").read_text())
    doc["gas"]["bounds"].update(rho_min=1e-320, p_min=1e-320, e_min=1e-320)
    doc["anchor"].update(rho=1e-300, p=1e-300)
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(doc))
    assert main(["verify", str(config)]) == 1
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert report["verdict"] == "fail"
    assert report["entropy_min"] is None
    assert report["entropy_violations"]
    assert all(v["production"] is None for v in report["entropy_violations"])


@pytest.mark.parametrize("rho, p, c", [("1e300", "1e-300", "0.0"), ("1e-300", "1e300", "inf")])
def test_pm_trace_names_a_sound_speed_that_is_not_positive_and_finite(capsys, rho, p, c):
    argv = ["pm-trace", "--gamma", "1.4", "--mach", "2", "--rho", rho, "--p", p]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "construction failure: the sound speed sqrt(gamma p / rho) of --rho and --p"
        " is %s, not a positive finite number\n" % c
    )
