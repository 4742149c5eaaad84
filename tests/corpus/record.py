"""Record the CLI corpus that tests/test_corpus.py replays.

    PYTHONPATH=src python3 tests/corpus/record.py

runs every argv below through sectorflow.cli.main in process, each in a
fresh directory, and writes tests/corpus/corpus.json: per argv the exit
code and the sha256 of stdout, stderr and every written file, plus the
numpy version, Python version and machine. A change that re-records a
digest lists each changed argv and the reason in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_corpus import CORPUS, SHIPPED, environment, record_of, run_argv  # noqa: E402


def flow_argvs(name):
    config = "configs/%s.json" % name
    argvs = [
        ["build", config],
        ["build", config, "--out", "out"],
        ["verify", config],
        ["verify", config, "--out", "report.json"],
        ["analyze", config],
        ["analyze", config, "--out", "analysis.json"],
    ]
    for fmt in ("csv", "json", "svg"):
        argvs.append(["export", config, "--format", fmt])
        argvs.append(["export", config, "--format", fmt, "--out", "flow." + fmt])
    argvs.append(["export", config, "--format", "csv", "--samples", "16"])
    argvs.append(["export", config, "--format", "csv", "--samples", "9", "--out", "ring.csv"])
    return argvs


ARGVS = [argv for name in SHIPPED for argv in flow_argvs(name)] + [
    # broken configs
    ["build", "configs/low_ceiling.json"],
    ["verify", "configs/low_ceiling.json"],
    ["build", "configs/unknown_key.json"],
    ["verify", "configs/bad_json.json"],
    ["build", "configs/missing.json"],
    ["export", "configs/two_sector.json", "--format", "csv", "--samples", "1"],
    ["build", "configs/off_sonic_start.json"],
    ["verify", "configs/off_sonic_start.json"],
    ["build", "configs/duplicate_format.json", "--out", "out"],
    ["verify", "configs/duplicate_format.json"],
    ["build", "configs/tiny_two_sector.json"],
    ["verify", "configs/tiny_two_sector.json"],
    ["analyze", "configs/tiny_two_sector.json"],
    ["verify", "configs/tiny_uniform.json"],
    # solvers
    ["pm-trace", "--gamma", "1.4", "--mach", "2.0"],
    ["pm-trace", "--gamma", "1.4", "--mach", "2.0", "--out", "trace.csv"],
    ["pm-trace", "--gamma", "1.12", "--mach", "3", "--orientation", "backward", "--span", "20deg"],
    ["pm-trace", "--gamma", "1.4", "--mach", "2.0", "--span", "0.6", "--steps", "5"],
    ["pm-trace", "--gamma", "1.4", "--mach", "2", "--span", "6"],
    ["pm-trace", "--gamma", "1.4", "--mach", "2", "--span", "10"],
    ["pm-trace", "--gamma", "1.4", "--mach", "2", "--steps", "0"],
    ["pm-trace", "--gamma", "1.4", "--mach", "2", "--span", "nandeg"],
    ["pm-trace", "--gamma", "1.4", "--mach", "2", "--rho", "1e-300"],
    ["pm-trace", "--gamma", "1.4", "--mach", "2", "--rho", "1e300", "--p", "1e-300"],
    ["shock-solve", "--gamma", "1.4", "--mach", "2.0", "--deflection", "10deg", "--branch", "weak"],
    ["shock-solve", "--gamma", "1.4", "--mach", "2.0", "--deflection", "10deg", "--branch", "strong"],
    ["shock-solve", "--gamma", "1.4", "--mach", "3.0", "--deflection", " 0.3 "],
    ["shock-solve", "--gamma", "1.4", "--mach", "2.0", "--deflection", "30deg"],
    ["shock-solve", "--gamma", "1.4", "--mach", "inf", "--deflection", "10deg"],
    ["shock-solve", "--gamma", "1.4", "--mach", "2.0", "--deflection", "abc"],
    ["shock-solve", "--gamma", "1.4", "--mach", "2.0", "--deflection", "infdeg"],
    ["shock-solve", "--gamma", "1.4", "--mach", "2", "--deflection", "1e-17", "--branch", "strong"],
    ["shock-solve", "--gamma", "1.4", "--mach", "2", "--deflection", "1e-17", "--branch", "weak"],
    ["shock-solve", "--gamma", "1.4", "--mach", "1e150", "--deflection", "0.5", "--branch", "strong"],
    ["max-turn", "--gamma", "1.4"],
    ["max-turn", "--gamma", "1.4", "--mach", "2.0"],
    ["max-turn", "--gamma", "1.4", "--mach", "1.0"],
    ["max-turn", "--gamma", "1.4", "--mach", "1e160"],
    ["max-turn", "--gamma", "1.02", "--mach", "1e154"],
    ["shock-solve", "--gamma", "1.02", "--mach", "1e154", "--deflection", "1.5"],
    # bad flags and help
    ["frobnicate"],
    [],
    ["shock-solve", "--gamma", "1.4", "--mach", "2.0"],
    ["export", "configs/two_sector.json", "--format", "pdf"],
    ["pm-trace", "--gamma", "x", "--mach", "2"],
    ["-h"],
] + [
    [command, "-h"]
    for command in ("build", "verify", "analyze", "export", "shock-solve", "pm-trace", "max-turn")
] + [
    # outputs that cannot be written: a missing directory, a directory, a file
    ["verify", "configs/two_sector.json", "--out", "missing/report.json"],
    ["analyze", "configs/uniform.json", "--out", "missing/analysis.json"],
    ["export", "configs/uniform.json", "--format", "csv", "--out", "missing/flow.csv"],
    ["pm-trace", "--gamma", "1.4", "--mach", "2.0", "--out", "missing/trace.csv"],
    ["verify", "configs/uniform.json", "--out", "."],
    ["build", "configs/two_sector.json", "--out", "configs/uniform.json"],
]


def main():
    cases = []
    for argv in ARGVS:
        with tempfile.TemporaryDirectory() as workdir:
            cases.append(record_of(argv, *run_argv(argv, workdir)))
    doc = dict(environment(), cases=cases)
    CORPUS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("recorded %d argvs in %s" % (len(cases), CORPUS))


if __name__ == "__main__":
    main()
