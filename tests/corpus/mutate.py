"""Seeded mutations of the shipped configs, and the record that tests/test_corpus.py replays.

    PYTHONPATH=src python3 tests/corpus/mutate.py

runs `build` and `verify` on every config that mutants() generates, in
process through sectorflow.cli.main with the corpus helpers, and writes
tests/corpus/mutations.json: per config the sha256 of its text and, per
command, the exit code and the sha256 of stdout and stderr.

The generator itself uses the standard library only, so a refactor can be
checked against the record of its parent without the package. Its configs:

  * RANDOM_COUNT seeded mutations of the four shipped configs, each one
    operator: a number scaled, zeroed or negated, set to 1e308, a string,
    a bool or a list; a key dropped; a piece's kind or orientation swapped;
    a theta_start added to a wave; the bracket reversed or the solver
    dropped; the anchor angle moved;
  * two_sector anchored at its backward wave's sonic angle plus k 1e-10
    (k = -10 .. 10);
  * two_sector with its first wave declared to start delta c / |L| past
    that sonic angle, for 15 deltas from 1e-9 to 1e-4, with and without
    the solver block;
  * two_sector scaled by k = 0.05 and 20 (speeds and contact L times k,
    pressures, pressure bounds and e_min times k^2, speed_max times k),
    anchored at the same sonic angle plus j 1e-10 (j = -7 .. 7).

A change that re-records an entry lists it and the reason in CHANGES.md.
"""

import copy
import json
import random
import sys
import tempfile
from math import cos, sin, sqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RECORD = ROOT / "tests" / "corpus" / "mutations.json"
SHIPPED = ("two_sector", "three_sector_g112", "three_sector_g14", "uniform")
SEED = 20121
RANDOM_COUNT = 60
# two_sector's backward wave starts where N = -c in the anchor constant
SONIC_ANGLE = 0.3890611498540748
COMMANDS = ("build", "verify")
# a scale leaves every angle of two_sector, its sonic angle included, as it is
ANCHOR_SCALES = (0.05, 20.0)

_SCALES = (0.5, 0.9, 0.99, 0.999, 1.001, 1.01, 1.1, 2.0)
_KINDS = ("shock", "contact", "wave")


def _shipped():
    return {
        name: json.loads((ROOT / "configs" / (name + ".json")).read_text(encoding="utf-8"))
        for name in SHIPPED
    }


def _leaves(node, path=()):
    """(path, value) of every scalar in the document, depth first."""
    if isinstance(node, dict):
        for key in node:
            yield from _leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, path + (i,))
    else:
        yield path, node


def _keys(node, path=()):
    """Path of every dict key in the document."""
    if isinstance(node, dict):
        for key in node:
            yield path + (key,)
            yield from _keys(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _keys(item, path + (i,))


def _parent(doc, path):
    for step in path[:-1]:
        doc = doc[step]
    return doc


def _label(path):
    return ".".join(str(p) for p in path)


def _mutate_number(rng, doc):
    numbers = [
        (p, v) for p, v in _leaves(doc)
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]
    path, value = rng.choice(numbers)
    op = rng.choice(("scale", "zero", "negate", "huge", "string", "bool", "list"))
    new = {
        "scale": None,
        "zero": 0.0,
        "negate": -value,
        "huge": 1e308,
        "string": "abc",
        "bool": True,
        "list": [value],
    }[op]
    what = op
    if op == "scale":
        factor = rng.choice(_SCALES)
        new = value * factor
        what = "scale x%g" % factor
    _parent(doc, path)[path[-1]] = new
    return "%s %s" % (_label(path), what)


def _drop_key(rng, doc):
    path = rng.choice(list(_keys(doc)))
    del _parent(doc, path)[path[-1]]
    return "%s dropped" % _label(path)


def _swap_kind(rng, doc):
    if not doc["pieces"]:
        return _drop_key(rng, doc)
    i = rng.randrange(len(doc["pieces"]))
    piece = doc["pieces"][i]
    if "orientation" in piece and rng.random() < 0.5:
        new = "forward" if piece["orientation"] == "backward" else "backward"
        piece["orientation"] = new
        return "pieces.%d.orientation %s" % (i, new)
    new = rng.choice([k for k in _KINDS if k != piece.get("kind")])
    piece["kind"] = new
    return "pieces.%d.kind %s" % (i, new)


def _add_start(rng, doc):
    waves = [i for i, p in enumerate(doc["pieces"]) if p.get("kind") == "wave"]
    if not waves:
        return _swap_kind(rng, doc)
    i = rng.choice(waves)
    end = doc["pieces"][i]["theta_end"]
    start = end * rng.choice((0.0, 0.25, 0.5, 0.75, 0.9, 0.99))
    doc["pieces"][i]["theta_start"] = start
    return "pieces.%d.theta_start %r" % (i, start)


def _solver(rng, doc):
    if "solver" not in doc:
        return _move_anchor(rng, doc)
    if rng.random() < 0.5:
        del doc["solver"]
        return "solver dropped"
    doc["solver"]["shoot"]["bracket"].reverse()
    return "bracket reversed"


def _move_anchor(rng, doc):
    step = rng.choice((-1.0, 1.0)) * rng.choice((1e-9, 1e-6, 1e-3, 0.1, 1.0))
    doc["anchor"]["theta"] += step
    return "anchor.theta %+g" % step


_OPERATORS = (
    (_mutate_number, 6),
    (_drop_key, 2),
    (_swap_kind, 2),
    (_add_start, 1),
    (_solver, 1),
    (_move_anchor, 1),
)


def _text(doc):
    return json.dumps(doc, indent=2) + "\n"


def random_mutants(count=RANDOM_COUNT, seed=SEED):
    """(name, what, config text) of count seeded one-operator mutations."""
    rng = random.Random(seed)
    shipped = _shipped()
    operators = [op for op, weight in _OPERATORS for _ in range(weight)]
    out = []
    for k in range(count):
        base = rng.choice(SHIPPED)
        doc = copy.deepcopy(shipped[base])
        what = rng.choice(operators)(rng, doc)
        out.append(("random-%03d" % k, "%s: %s" % (base, what), _text(doc)))
    return out


def anchor_family():
    """two_sector anchored at the sonic angle plus k 1e-10, k = -10 .. 10."""
    out = []
    for k in range(-10, 11):
        doc = _shipped()["two_sector"]
        doc["anchor"]["theta"] = SONIC_ANGLE + k * 1e-10
        out.append(("anchor%+03d" % k, "two_sector: anchor.theta sonic %+de-10" % k, _text(doc)))
    return out


def _scaled_two_sector(k):
    """two_sector with its speeds scaled by k: the same flow, k times as fast."""
    doc = _shipped()["two_sector"]
    bounds, anchor = doc["gas"]["bounds"], doc["anchor"]
    for key in ("p_min", "p_max", "e_min"):
        bounds[key] *= k * k
    bounds["speed_max"] *= k
    anchor["u"] *= k
    anchor["v"] *= k
    anchor["p"] *= k * k
    for piece in doc["pieces"]:
        if piece["kind"] == "contact":
            piece["L"] *= k
    return doc


def scaled_anchor_family():
    """Scaled two_sector anchored at the sonic angle plus j 1e-10, j = -7 .. 7."""
    out = []
    for k in ANCHOR_SCALES:
        for j in range(-7, 8):
            doc = _scaled_two_sector(k)
            doc["anchor"]["theta"] = SONIC_ANGLE + j * 1e-10
            out.append((
                "scaled%g-anchor%+03d" % (k, j),
                "two_sector x%g: anchor.theta sonic %+de-10" % (k, j),
                _text(doc),
            ))
    return out


def off_sonic_family():
    """two_sector's first wave declared to start delta c / |L| past the sonic angle."""
    base = _shipped()["two_sector"]
    a = base["anchor"]
    c = sqrt(base["gas"]["gamma"] * a["p"] / a["rho"])
    L = a["u"] * cos(SONIC_ANGLE) + a["v"] * sin(SONIC_ANGLE)
    out = []
    for k in range(15):
        delta = 1e-9 * 10.0 ** (k * 5.0 / 14.0)
        for solver in (True, False):
            doc = copy.deepcopy(base)
            doc["pieces"][0]["theta_start"] = SONIC_ANGLE + delta * c / abs(L)
            if not solver:
                del doc["solver"]
            name = "off-sonic-%02d%s" % (k, "" if solver else "-nosolver")
            what = "two_sector: wave start delta %.3g%s" % (delta, "" if solver else ", no solver")
            out.append((name, what, _text(doc)))
    return out


def mutants():
    return random_mutants() + anchor_family() + off_sonic_family() + scaled_anchor_family()


def argv_for(command):
    return [command, "mutant.json"]


def run_mutant(text, command):
    """One command on the config text, run in a fresh directory.

    Returns the corpus helper run_argv's (exit code, stdout, stderr,
    {written path: bytes}); record_of turns it into the record.
    """
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from test_corpus import run_argv
    finally:
        sys.path.remove(str(ROOT / "tests"))
    with tempfile.TemporaryDirectory() as workdir:
        (Path(workdir) / "mutant.json").write_text(text, encoding="utf-8")
        return run_argv(argv_for(command), workdir)


def main():
    from hashlib import sha256

    sys.path.insert(0, str(ROOT / "tests"))
    from test_corpus import environment, record_of

    cases = []
    for name, what, text in mutants():
        cases.append(
            {
                "name": name,
                "what": what,
                "config": sha256(text.encode("utf-8")).hexdigest(),
                "runs": [
                    record_of(argv_for(command), *run_mutant(text, command))
                    for command in COMMANDS
                ],
            }
        )
    doc = dict(environment(), seed=SEED, cases=cases)
    RECORD.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("recorded %d configs in %s" % (len(cases), RECORD))


if __name__ == "__main__":
    main()
