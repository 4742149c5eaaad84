"""The CLI corpus replays byte for byte, and its artifacts pass the benchmark's checks.

tests/corpus/corpus.json holds, per argv, the exit code and the sha256 of
stdout, of stderr and of every file the command writes, together with the
numpy version, Python version and machine it was recorded with
(tests/corpus/record.py writes it; no test runs that script). Each argv
runs here in process through main(argv), in a fresh directory holding the
shipped configs and seven broken ones under configs/. Every CSV, JSON and
SVG artifact of a run that exits 0 then goes through bench/checks.py, which
re-derives the physics without importing sectorflow.

tests/corpus/mutations.json holds the same record for `build` and `verify`
on each config of the seeded mutation generator tests/corpus/mutate.py
(which writes it); each is replayed here too, every run keeps main's
exit-code contract, and each mutant that builds passes the benchmark's
jump, closure and circle-integral checks on evaluate. A derandomized
hypothesis test holds the same contract on generated input: configs under
mutate.py's operators, odd float text in the solver commands' flags, and
--out paths that cannot be written.
"""

import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
from functools import lru_cache, partial
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from sectorflow.cli import main, parse_config
from sectorflow.flowfield import build_flow, evaluate
from test_flowfield import OFF_SONIC_START

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "corpus" / "corpus.json"
SHIPPED = ("two_sector", "three_sector_g112", "three_sector_g14", "uniform")


def corpus_inputs():
    """Config name -> text: the shipped configs plus seven broken ones."""
    texts = {
        name: (ROOT / "configs" / (name + ".json")).read_text(encoding="utf-8")
        for name in SHIPPED
    }
    low = json.loads(texts["two_sector"])
    low["gas"]["bounds"]["p_max"] = 1.5
    texts["low_ceiling"] = json.dumps(low, indent=2)
    unknown = json.loads(texts["uniform"])
    unknown["colour"] = "red"
    texts["unknown_key"] = json.dumps(unknown, indent=2)
    texts["bad_json"] = '{"gas": '
    off_sonic = json.loads(texts["two_sector"])
    off_sonic["pieces"][0]["theta_start"] = OFF_SONIC_START
    texts["off_sonic_start"] = json.dumps(off_sonic, indent=2)
    duplicate = json.loads(texts["uniform"])
    duplicate["output"]["formats"] = ["csv", "csv", "svg"]
    texts["duplicate_format"] = json.dumps(duplicate, indent=2)
    # floors below the anchor's rho = p = 1e-300, whose rho^gamma underflows to 0
    for name in ("two_sector", "uniform"):
        tiny = json.loads(texts[name])
        tiny["gas"]["bounds"].update(rho_min=1e-320, p_min=1e-320, e_min=1e-320)
        tiny["anchor"].update(rho=1e-300, p=1e-300)
        texts["tiny_" + name] = json.dumps(tiny, indent=2)
    return texts


def environment():
    return {
        "numpy": numpy.__version__,
        "python": "%d.%d" % sys.version_info[:2],
        "machine": platform.machine(),
    }


def _snapshot(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_argv(argv, workdir):
    """main(argv) run in workdir: (exit code, stdout, stderr, {written path: bytes}).

    -h leaves main through argparse's SystemExit(0); its code is the exit
    code. Help text is wrapped at 80 columns whatever the terminal.
    """
    workdir = Path(workdir)
    (workdir / "configs").mkdir()
    for name, text in corpus_inputs().items():
        (workdir / "configs" / (name + ".json")).write_text(text, encoding="utf-8")
    before = _snapshot(workdir)
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    written = {k: v for k, v in _snapshot(workdir).items() if before.get(k) != v}
    return code, out.getvalue(), err.getvalue(), written


def _sha(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


def record_of(argv, code, stdout, stderr, written):
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": _sha(stdout),
        "stderr": _sha(stderr),
        "files": {name: _sha(data) for name, data in written.items()},
    }


CORPUS_DOC = json.loads(CORPUS.read_text(encoding="utf-8"))


# ------------------------------------------------------ independent checks


@pytest.fixture(scope="module")
def checks():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import checks
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return checks


@lru_cache(maxsize=None)
def _flow(name):
    cfg = parse_config(corpus_inputs()[name])
    return build_flow(cfg.gas, cfg.description)


def _flag(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def artifacts(argv, stdout, written):
    """(kind, text) for each output of a run that a check applies to."""
    command = argv[0]
    outs = {name: data.decode("utf-8") for name, data in written.items()}
    if command in ("verify", "analyze", "pm-trace") and not {"--out", "-h"} & set(argv):
        outs["stdout.json"] = stdout
    for name, text in outs.items():
        yield (command if command in ("analyze", "pm-trace") else name.rsplit(".", 1)[-1]), text


def check_artifact(checks, argv, kind, text):
    if kind == "pm-trace":
        checks.check_pm_trace(text, float(_flag(argv, "--gamma")))
        return
    name = Path(argv[1]).stem
    doc = json.loads(corpus_inputs()[name])
    gamma = doc["gas"]["gamma"]
    flow = _flow(name)
    if kind == "json":
        checks.check_audit_document(checks.load_json(text, "audit report"))
    elif kind == "analyze":
        # a state is its (rho, u, v, p) tuple, which is what the checks take
        state_at = partial(evaluate, flow)
        checks.check_analysis(checks.load_json(text, "analysis"), state_at, gamma)
    elif kind == "svg":
        checks.check_svg(text, len(flow.shock_points), len(flow.contact_points))
    else:
        assert kind == "csv", kind
        a = doc["anchor"]
        samples = _flag(argv, "--samples") or doc.get("output", {}).get("samples", 720)
        checks.check_csv(
            text, gamma, int(samples), float(a["theta"]) % checks.TWO_PI,
            (a["rho"], a["u"], a["v"], a["p"]),
        )


# ------------------------------------------------------------------ replay


def _case_id(case):
    return " ".join(case["argv"]) or "(no arguments)"


@pytest.mark.parametrize("case", CORPUS_DOC["cases"], ids=_case_id)
def test_corpus_argv_replays_byte_identical(case, tmp_path, checks):
    code, stdout, stderr, written = run_argv(case["argv"], tmp_path)
    got = record_of(case["argv"], code, stdout, stderr, written)
    here = environment()
    recorded = {k: CORPUS_DOC[k] for k in here}
    note = "" if here == recorded else " (recorded with %r, running with %r)" % (recorded, here)
    assert got == case, "%s differs from the corpus%s\nstdout: %r\nstderr: %r" % (
        case["argv"], note, stdout[:300], stderr[:300],
    )
    if code == 0:
        for kind, text in artifacts(case["argv"], stdout, written):
            check_artifact(checks, case["argv"], kind, text)


def test_corpus_artifacts_reach_every_check(checks):
    """Every kind of artifact the checks know appears in the corpus on exit 0."""
    commands = {c["argv"][0] for c in CORPUS_DOC["cases"] if c["exit"] == 0}
    assert {"verify", "analyze", "export", "build", "pm-trace"} <= commands
    suffixes = {
        name.rsplit(".", 1)[-1]
        for c in CORPUS_DOC["cases"]
        if c["exit"] == 0
        for name in c["files"]
    }
    assert {"csv", "json", "svg"} <= suffixes


# ------------------------------------------------------------- mutations


def _load_mutate():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tests" / "corpus" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTATE = _load_mutate()
MUTATIONS_DOC = json.loads(MUTATE.RECORD.read_text(encoding="utf-8"))
MUTANTS = {name: (what, text) for name, what, text in MUTATE.mutants()}


def test_every_generated_mutant_is_recorded():
    assert [c["name"] for c in MUTATIONS_DOC["cases"]] == list(MUTANTS)
    assert MUTATIONS_DOC["seed"] == MUTATE.SEED


def test_no_recorded_mutant_builds_and_then_fails_its_audit():
    """The record's invariant: if `build` exits 0 on a config, `verify` exits 0 on it."""
    exits = {c["name"]: {r["argv"][0]: r["exit"] for r in c["runs"]} for c in MUTATIONS_DOC["cases"]}
    assert [n for n, e in exits.items() if e["build"] == 0 and e["verify"] != 0] == []


def check_exit_contract(command, code, stdout, stderr):
    """The exit-code contract of one run of main, whatever its input."""
    assert type(code) is int and code in (0, 1, 2, 3), code
    if code == 0:
        assert stderr == ""
    elif code == 1:
        # only a detached shock, or a failed audit: a flow that builds exits 0 from `build`
        if command == "shock-solve":
            assert stdout == "" and stderr.startswith("no attached shock:"), stderr
            assert stderr.count("\n") == 1 and stderr.endswith("\n")
        else:
            assert command == "verify" and json.loads(stdout)["verdict"] == "fail"
    else:
        prefixes = ("config error:",) if code == 3 else ("closure failure:", "construction failure:")
        assert stdout == ""
        assert stderr.startswith(prefixes) and stderr.count("\n") == 1, stderr
        assert stderr.endswith("\n")


@pytest.mark.parametrize("case", MUTATIONS_DOC["cases"], ids=lambda c: c["name"])
def test_mutant_replays_byte_identical(case):
    """Each run keeps the exit-code contract and matches its record."""
    what, text = MUTANTS[case["name"]]
    assert (case["what"], case["config"]) == (what, _sha(text)), "generator and record disagree"
    runs = []
    for command in MUTATE.COMMANDS:
        code, stdout, stderr, written = MUTATE.run_mutant(text, command)
        check_exit_contract(command, code, stdout, stderr)
        runs.append(record_of(MUTATE.argv_for(command), code, stdout, stderr, written))
    assert runs == case["runs"], what


BUILT_MUTANTS = [
    c["name"] for c in MUTATIONS_DOC["cases"]
    if {r["argv"][0]: r["exit"] for r in c["runs"]}["build"] == 0
]


@pytest.mark.parametrize("name", BUILT_MUTANTS)
def test_built_mutant_meets_the_benchmark_physics(name, checks):
    """bench/checks.py's jump, closure and circle-integral checks, on evaluate."""
    text = MUTANTS[name][1]
    cfg = parse_config(text)
    flow = build_flow(cfg.gas, cfg.description)
    doc = json.loads(text)
    gamma, a = doc["gas"]["gamma"], doc["anchor"]
    anchor_theta = float(a["theta"]) % checks.TWO_PI
    state_at = partial(evaluate, flow)
    shocks = [sp.theta for sp in flow.shock_points]
    contacts = [cp.theta for cp in flow.contact_points]
    checks.check_jumps(state_at, gamma, shocks, contacts)
    checks.check_closure(state_at, anchor_theta, (a["rho"], a["u"], a["v"], a["p"]))
    ends = [t for p in flow.interval_pieces for t in (p.theta_start, p.theta_end)]
    checks.check_circle_integral(state_at, gamma, anchor_theta, shocks + contacts + ends)


# ------------------------------------------------------ generated input
#
# The exit-code contract on inputs no record holds: configs under one or two
# of mutate.py's operators, solver command lines with odd float text, and
# --out paths that cannot be written. mutate.py's operators scale a number by
# at most 2 or put a non-integer in its place, so every count a config draws
# (steps, samples) stays far below cli's ceilings and no draw starts a long
# march. No draw asks for -h, which leaves main through SystemExit(0).

FLOAT_TEXT = ("nan", "inf", "-inf", "-0", "0", "1e-320", "1e400", "10deg", "deg", "1", "1.4", "3")
CONFIG_COMMANDS = (
    ["build"], ["verify"], ["analyze"],
    ["export", "--format", "csv"], ["export", "--format", "json"], ["export", "--format", "svg"],
)
OUT_COMMANDS = {
    "build": ["build", "configs/two_sector.json"],
    "verify": ["verify", "configs/two_sector.json"],
    "analyze": ["analyze", "configs/uniform.json"],
    "export": ["export", "configs/uniform.json", "--format", "svg"],
    "pm-trace": ["pm-trace", "--gamma", "1.4", "--mach", "2"],
}
# a missing directory, a directory given as a file, a file given as a directory
OUT_PATHS = ("missing/out.txt", "missing/deeper", "configs", ".", "configs/uniform.json",
             "configs/uniform.json/out.txt")

_odd_text = st.one_of(st.sampled_from(FLOAT_TEXT), st.floats().map(repr))


def _radians(lo, hi):
    return st.one_of(st.floats(lo, hi).map(repr), st.floats(lo, hi).map("{!r}deg".format))


# per flag, values a command can succeed with; each flag draws odd text a third of the time
PLAUSIBLE = {
    "--gamma": st.floats(1.0, 3.0).map(repr),
    "--mach": st.floats(0.5, 6.0).map(repr),
    "--deflection": _radians(-1.0, 1.0),
    "--rho": st.floats(1e-3, 1e3).map(repr),
    "--p": st.floats(1e-3, 1e3).map(repr),
    "--span": _radians(0.0, 7.0),
}


@st.composite
def _mutated_config(draw):
    """(argv, config text): a shipped config under one or two of mutate.py's operators."""
    rng = draw(st.randoms(use_true_random=False))
    doc = copy.deepcopy(MUTATE._shipped()[draw(st.sampled_from(MUTATE.SHIPPED))])
    operators = [op for op, weight in MUTATE._OPERATORS for _ in range(weight)]
    for _ in range(draw(st.integers(1, 2))):
        try:
            rng.choice(operators)(rng, doc)
        except (KeyError, IndexError, TypeError, AttributeError):
            break  # the first operator left no site of the shape the second one needs
    command = draw(st.sampled_from(CONFIG_COMMANDS))
    return [command[0], "mutant.json", *command[1:]], MUTATE._text(doc)


@st.composite
def _solver_argv(draw):
    """(argv, None): a solver command whose flag values are drawn float text."""
    def flag(name):
        return [name, draw(st.one_of(_odd_text, PLAUSIBLE[name], PLAUSIBLE[name]))]

    command = draw(st.sampled_from(("shock-solve", "max-turn", "pm-trace")))
    argv = [command] + flag("--gamma")
    if command == "shock-solve":
        argv += flag("--mach") + flag("--deflection")
        argv += draw(st.sampled_from(([], ["--branch", "weak"], ["--branch", "strong"])))
    elif command == "max-turn":
        argv += flag("--mach") if draw(st.booleans()) else []
    else:
        argv += flag("--mach")
        for name in ("--rho", "--p", "--span"):
            argv += flag(name) if draw(st.booleans()) else []
        argv += draw(st.sampled_from(([], ["--orientation", "backward"])))
        argv += draw(st.sampled_from(([], ["--steps", "1"], ["--steps", "64"], ["--steps", "0"])))
    return argv, None


@st.composite
def _out_argv(draw):
    """(argv, None): a command that writes, given an --out path that may not be writable."""
    command = draw(st.sampled_from(sorted(OUT_COMMANDS)))
    return OUT_COMMANDS[command] + ["--out", draw(st.sampled_from(OUT_PATHS))], None


@settings(max_examples=250, deadline=None, derandomize=True)
@given(case=st.one_of(_mutated_config(), _solver_argv(), _out_argv()))
def test_generated_input_keeps_the_exit_code_contract(case):
    argv, text = case
    with tempfile.TemporaryDirectory() as workdir:
        if text is not None:
            (Path(workdir) / "mutant.json").write_text(text, encoding="utf-8")
        code, stdout, stderr, _ = run_argv(argv, workdir)
    check_exit_contract(argv[0], code, stdout, stderr)
