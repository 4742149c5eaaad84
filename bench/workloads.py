"""The three workloads: seeded inputs, the timed operation, its checks.

A workload draws one round of operations from the seed; a run repeats that
round whole until the run length is used up, so every run attempts the
same mix. Each operation is either a "result" (it must produce output that
passes the checks in checks.py) or a "reject" (it must fail in the way the
program documents). The first time an operation runs, its output gets the
full independent check; later rounds must reproduce the checked output
exactly, which holds because the program's artifacts are deterministic.

Inputs that set the cost of an operation (wave steps, CSV samples, Mach
number) are drawn by stratified sampling: operation i of n draws from the
i-th of n equal slices of the range. The median operation of a round then
sits at the same place of the range on every seed. In `flows`, where a
round holds only a few operations, each draw keeps to the middle fifth of
its slice, so that the cost of the median operation does not move with the
seed.
"""

import copy
import hashlib
import json
import os
import subprocess
import sys
from math import cos, exp, log, pi, sin, sqrt
from statistics import median
from time import perf_counter

import checks
from checks import require

CONFIG_DIR = "configs"

# flows: 8 of the 10 result operations are two_sector builds, and the two
# other families are several times cheaper, so the median result operation
# of every round is a two_sector build near the middle of the steps range
TWO_SECTOR_OPS = 8
STEPS_RANGE = (16, 64)  # all pass the audit; 12 and 8 steps fail the weak-form tolerance
SAMPLES_RANGE = (360, 1440)
SMALL_FAMILY_OPS = 1  # each of three_sector_g112 and uniform
SCALED_REJECTS = 3  # plus three_sector_g14; the median rejection is a scaled one
ANCHOR_SCALES = ((0.94, 0.98), (1.02, 1.06))
# share of its slice a flows draw may fall in: the middle fifth keeps the
# two central builds within about one wave step of their slice centres
FLOWS_SLICE_WIDTH = 0.2

# solver-sweep
SOLVER_RESULTS = 360
SOLVER_REJECTS = 40
GAMMA_RANGE = (1.1, 5.0 / 3.0)
MACH_RANGE = (1.05, 8.0)
ATTACHED_SHARE = (0.05, 0.95)  # of the detachment deflection
DETACHED_SHARE = (1.02, 1.3)

# cli-cold: 10 of the 14 result calls compute next to nothing after the
# imports, so the median call is one of them; 3 of the 4 rejections are
# closure failures, so the median rejection is one of those
CLI_SOLVE_OPS = 4
CLI_UNCLOSABLE_OPS = 2
CLI_TURN_OPS = 3
CLI_TRACE_OPS = 3
PM_MACH_RANGE = (1.5, 4.0)
PM_SPAN_RANGE = (0.2, 0.5)


def load_config(name):
    with open(os.path.join(CONFIG_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def stratified(rng, i, n, lo=0.0, hi=1.0, width=1.0):
    """A uniform draw from the middle `width` of the i-th of n equal slices of [lo, hi)."""
    return lo + (hi - lo) * (i + 0.5 + width * (rng.random() - 0.5)) / n


def anchor_of(doc):
    a = doc["anchor"]
    return float(a["theta"]) % checks.TWO_PI, (a["rho"], a["u"], a["v"], a["p"])


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


class Op:
    """One operation: its expected outcome ("result"/"reject") and input."""

    def __init__(self, kind, family, **data):
        self.kind = kind
        self.family = family
        self.data = data

    def __repr__(self):
        return "Op(%s, %s)" % (self.kind, self.family)


def unclosable(base, scale):
    """two_sector with its anchor speed scaled away from the final |L|."""
    doc = copy.deepcopy(base)
    doc["anchor"]["u"] *= scale
    doc["anchor"]["v"] *= scale
    checks.check_unclosable(doc)
    return doc


def scaled_anchor(rng, j, n, width=1.0):
    lo, hi = ANCHOR_SCALES[j % 2]
    return stratified(rng, j, n, lo, hi, width)


# ===================================================================== flows


class Flows:
    """Warm process: parse, build, audit and export whole flows."""

    name = "flows"
    op_statistic = "median"  # operations of 15-200 ms

    def __init__(self, out_dir):
        from sectorflow import cli, flowfield, verify

        self.cli, self.flowfield, self.verify = cli, flowfield, verify
        self.closure_error = flowfield.ClosureError

    def make_round(self, rng):
        base = load_config("two_sector")
        ops = []
        for i in range(TWO_SECTOR_OPS):
            u = stratified(rng, i, TWO_SECTOR_OPS, width=FLOWS_SLICE_WIDTH)
            doc = copy.deepcopy(base)
            steps = STEPS_RANGE[0] + int(u * (STEPS_RANGE[1] - STEPS_RANGE[0] + 1))
            for piece in doc["pieces"]:
                if piece["kind"] == "wave":
                    piece["steps"] = steps
            doc["output"]["samples"] = SAMPLES_RANGE[0] + int(
                u * (SAMPLES_RANGE[1] - SAMPLES_RANGE[0] + 1)
            )
            ops.append(self._op("result", "two_sector", doc))
        for family in ("three_sector_g112", "uniform"):
            shipped = load_config(family)
            for i in range(SMALL_FAMILY_OPS):
                doc = copy.deepcopy(shipped)
                doc["output"]["samples"] = int(
                    stratified(rng, i, SMALL_FAMILY_OPS, *SAMPLES_RANGE, width=FLOWS_SLICE_WIDTH)
                )
                ops.append(self._op("result", family, doc))
        for j in range(SCALED_REJECTS):
            doc = unclosable(base, scaled_anchor(rng, j, SCALED_REJECTS, FLOWS_SLICE_WIDTH))
            ops.append(self._op("reject", "two_sector_scaled", doc))
        ops.append(self._op("reject", "three_sector_g14", load_config("three_sector_g14")))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(kind, family, doc):
        return Op(kind, family, doc=doc, text=json.dumps(doc))

    def warm_up(self):
        self.run(self._op("result", "uniform", load_config("uniform")))

    def run(self, op):
        cli, flowfield, verify = self.cli, self.flowfield, self.verify
        try:
            cfg = cli.parse_config(op.data["text"])
            flow = flowfield.build_flow(cfg.gas, cfg.description)
            if op.kind == "reject":
                return None, None
            report = verify.full_audit(flow)
            return (
                flow,
                cli.export_json(report),
                cli.export_csv(flow, cfg.samples),
                cli.analyze_to_document(flow, cfg.samples),
                cli.export_svg(flow),
            ), None
        except Exception as exc:
            return None, exc

    def expect(self, op, out, raised):
        if op.kind == "reject":
            checks.check_rejection(raised, self.closure_error)
        else:
            require(raised is None, "%s raised %r", op.family, raised)

    def digest(self, op, out, raised):
        if op.kind == "reject":
            return digest(type(raised).__name__, raised)
        _, js, csv, doc, svg = out
        return digest(js, csv, svg, json.dumps(doc, sort_keys=True))

    def check(self, op, out, raised):
        if op.kind == "reject":
            if op.family == "two_sector_scaled":
                checks.check_unclosable(op.data["doc"])
            return
        flow, js, csv, doc, svg = out
        spec = op.data["doc"]
        gamma = spec["gas"]["gamma"]
        anchor_theta, anchor = anchor_of(spec)
        evaluate = self.flowfield.evaluate

        def state_at(theta):
            s = evaluate(flow, theta)
            return (s.rho, s.u, s.v, s.p)

        checks.check_audit_document(checks.load_json(js, "audit report"))
        shocks, contacts = doc["shocks"], doc["contacts"]
        checks.check_jumps(state_at, gamma, shocks, contacts)
        checks.check_closure(state_at, anchor_theta, anchor)
        breaks = list(shocks) + list(contacts)
        for piece in flow.interval_pieces:
            breaks += [piece.theta_start, piece.theta_end]
        checks.check_circle_integral(state_at, gamma, anchor_theta, breaks)
        checks.check_csv(csv, gamma, spec["output"]["samples"], anchor_theta, anchor)
        checks.check_analysis(doc, state_at, gamma)
        checks.check_svg(svg, len(shocks), len(contacts))

    def install_trace(self, tracer):
        cli, flowfield, verify = self.cli, self.flowfield, self.verify
        for module, attr, name in (
            (cli, "parse_config", "cli.parse_config"),
            (flowfield, "build_flow", "flowfield.build_flow"),
            (flowfield, "integrate_pm", "pmwave.integrate_pm"),
            (verify, "full_audit", "verify.full_audit"),
            (verify, "smooth_residual", "verify.smooth_residual"),
            (verify, "validate_structure", "verify.validate_structure"),
            (verify, "sector_decompose", "verify.sector_decompose"),
            (verify, "check_admissibility", "verify.check_admissibility"),
            (cli, "export_json", "cli.export_json"),
            (cli, "export_csv", "cli.export_csv"),
            (cli, "export_svg", "cli.export_svg"),
            (cli, "analyze_to_document", "cli.analyze"),
            (cli, "bv_decompose", "flowfield.bv_decompose"),
        ):
            tracer.install(module, attr, name)
        tracer.install(flowfield, "shock_from_strength", "flowfield.shock_from_strength", True)
        for module in (flowfield, verify, cli):
            tracer.install(module, "evaluate", "flowfield.evaluate", True)

    def layer_metrics(self, tracer):
        totals, selfs = tracer.per_op(), tracer.per_op(self_time=True)
        out = {}
        for name in (
            "cli.parse_config",
            "flowfield.build_flow",
            "pmwave.integrate_pm",
            "verify.full_audit",
            "verify.smooth_residual",
            "verify.validate_structure",
            "verify.sector_decompose",
            "verify.check_admissibility",
            "cli.export_json",
            "cli.export_csv",
            "cli.export_svg",
            "cli.analyze",
            "flowfield.bv_decompose",
        ):
            out[name + "_ms"] = tracer.span_metric(totals, name, "result", 1e3)
        out["verify.quadrature_ms"] = tracer.span_metric(selfs, "verify.full_audit", "result", 1e3)
        out["flowfield.build_flow_reject_ms"] = tracer.span_metric(
            totals, "flowfield.build_flow", "reject", 1e3
        )
        out["flowfield.integrate_pm_calls"] = tracer.span_count_metric("pmwave.integrate_pm", "result")
        for name in ("flowfield.shock_from_strength", "flowfield.evaluate"):
            out[name + "_calls"] = tracer.count_metric(name, "result")
        return out


# ============================================================== solver-sweep


SOLVER_BOUNDS = dict(rho_min=1e-6, rho_max=1e6, p_min=1e-6, p_max=1e6, speed_max=1e6, e_min=1e-12)


class SolverSweep:
    """Warm process: one oblique-shock request per operation."""

    name = "solver-sweep"
    op_statistic = "fastest"  # requests of about 0.2 ms

    def __init__(self, out_dir):
        from sectorflow import gas, polar, roe, shock

        self.gas_mod, self.polar, self.roe, self.shock = gas, polar, roe, shock

    def _gas(self, gamma):
        return self.gas_mod.make_gas(gamma, self.gas_mod.PhaseBounds(**SOLVER_BOUNDS))

    def _request(self, kind, rng, mach, share_range):
        gamma = rng.uniform(*GAMMA_RANGE)
        share = rng.uniform(*share_range)
        delta = share * checks.max_deflection(mach, gamma)
        orient = rng.choice(list(self.shock.Orientation))
        return Op(
            kind,
            "oblique",
            gamma=gamma,
            gas=self._gas(gamma),
            mach=mach,
            delta=delta,
            branch=rng.choice(("weak", "strong")),
            orient=orient,
            theta=rng.uniform(0.0, 2.0 * pi),
            rho=rng.uniform(0.5, 2.0),
            p=rng.uniform(0.5, 2.0),
        )

    def make_round(self, rng):
        lo, hi = log(MACH_RANGE[0]), log(MACH_RANGE[1])
        ops = [
            self._request("result", rng, exp(stratified(rng, i, SOLVER_RESULTS, lo, hi)), ATTACHED_SHARE)
            for i in range(SOLVER_RESULTS)
        ]
        ops += [
            self._request("reject", rng, exp(stratified(rng, i, SOLVER_REJECTS, lo, hi)), DETACHED_SHARE)
            for i in range(SOLVER_REJECTS)
        ]
        rng.shuffle(ops)
        return ops

    def warm_up(self):
        gamma = 1.4
        self.run(
            Op("result", "oblique", gamma=gamma, gas=self._gas(gamma), mach=2.0, delta=0.1,
               branch="weak", orient=self.shock.Orientation.FORWARD, theta=0.3, rho=1.0, p=1.0)
        )

    def run(self, op):
        shock, roe = self.shock, self.roe
        d = op.data
        gas, mach = d["gas"], d["mach"]
        try:
            dmax = shock.max_deflection(mach, gas)
            beta = shock.solve_shock_angle(mach, d["delta"], d["branch"], gas)
            z = shock.strength_from_normal_mach(mach * sin(beta), d["gamma"], "front")
            c = sqrt(d["gamma"] * d["p"] / d["rho"])
            upstream = self.polar.PolarState(
                theta=d["theta"],
                N=d["orient"].sign * mach * c * sin(beta),
                L=mach * c * cos(beta),
                rho=d["rho"],
                p=d["p"],
            )
            sol = shock.shock_from_strength(upstream, z, d["orient"], gas)
            adm = shock.check_admissibility(sol, gas)
            left = sol.left_state().to_primitive()
            right = sol.right_state().to_primitive()
            matrix = roe.roe_matrix(left, right, d["theta"], gas)
            eig = roe.eigensystem(roe.roe_average(left, right, gas, d["theta"]), d["theta"], gas)
            return (dmax, beta, z, sol, adm, left, right, matrix, eig), None
        except Exception as exc:
            return None, exc

    def expect(self, op, out, raised):
        if op.kind == "reject":
            checks.check_rejection(raised, ValueError, "detached")
        else:
            require(raised is None, "oblique request raised %r", raised)

    def digest(self, op, out, raised):
        if op.kind == "reject":
            return digest(raised)
        dmax, beta, z, sol, adm, left, right, matrix, eig = out
        return digest(
            repr((dmax, beta, z, sol, adm.ok, left, right, eig.eigenvalues)),
            matrix.tobytes(),
            eig.right.tobytes(),
            eig.left.tobytes(),
        )

    def check(self, op, out, raised):
        d = op.data
        if op.kind == "reject":
            require(
                d["delta"] > checks.max_deflection(d["mach"], d["gamma"]),
                "a rejected deflection is below the detachment deflection",
            )
            return
        dmax, beta, z, sol, adm, left, right, matrix, eig = out
        gamma, mach = d["gamma"], d["mach"]
        checks.check_max_deflection(mach, gamma, dmax)
        checks.check_shock_angle(mach, gamma, d["delta"], d["branch"], beta)
        front, back = sol.upstream.to_primitive(), sol.downstream.to_primitive()
        as_tuple = lambda s: (s.rho, s.u, s.v, s.p)
        checks.check_shock_jump(as_tuple(front), as_tuple(back), d["theta"], gamma, mach * sin(beta))
        require(adm.ok, "admissibility fails: %s", adm.first_failure())
        checks.check_roe(
            matrix.tolist(),
            as_tuple(left),
            as_tuple(right),
            d["theta"],
            gamma,
            eig.eigenvalues,
            eig.right.tolist(),
            eig.left.tolist(),
        )

    def install_trace(self, tracer):
        shock, roe = self.shock, self.roe
        for module, attr in (
            (shock, "max_deflection"),
            (shock, "solve_shock_angle"),
            (shock, "shock_from_strength"),
            (shock, "check_admissibility"),
            (roe, "roe_matrix"),
            (roe, "eigensystem"),
        ):
            tracer.install(module, attr, "%s.%s" % (module.__name__.split(".")[-1], attr))
        tracer.install(shock, "deflection_angle", "shock.deflection_angle", True)

    def layer_metrics(self, tracer):
        totals = tracer.per_op()
        out = {}
        for name in (
            "shock.max_deflection",
            "shock.solve_shock_angle",
            "shock.shock_from_strength",
            "shock.check_admissibility",
            "roe.roe_matrix",
            "roe.eigensystem",
        ):
            out[name + "_us"] = tracer.span_metric(totals, name, "result", 1e6)
        out["shock.solve_shock_angle_reject_us"] = tracer.span_metric(
            totals, "shock.solve_shock_angle", "reject", 1e6
        )
        out["shock.deflection_angle_calls"] = tracer.count_metric("shock.deflection_angle", "result")
        return out


# ================================================================= cli-cold

CHILD = "import sys; from sectorflow.cli import main; sys.exit(main())"
CHILD_TRACED = (
    "import sys, time\n"
    "from sectorflow.cli import main\n"
    "t = time.perf_counter()\n"
    "rc = main()\n"
    "sys.stderr.write('bench-main-ms %r\\n' % ((time.perf_counter() - t) * 1e3))\n"
    "sys.exit(rc)\n"
)
CHILD_TIMEOUT = 120


def import_times(stderr):
    """(numpy ms, scipy ms, sectorflow ms) from -X importtime output.

    A module's self time belongs to numpy or scipy when it is that package
    or was first imported from inside it. The sectorflow figure is the
    cumulative time of the outermost sectorflow import, dependencies
    included: what `import sectorflow.cli` costs a fresh process.
    """
    nodes = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        parts = line[len("import time:"):].split("|")
        self_us, cum_us, name = int(parts[0]), int(parts[1]), parts[2][1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        nodes.append((depth, self_us, cum_us, name.strip()))
    owned = {"numpy": 0, "scipy": 0}
    sectorflow = 0
    stack = []  # (depth, owner, inside sectorflow); walked parent-first
    for depth, self_us, cum_us, name in reversed(nodes):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        parent_owner, parent_sf = (stack[-1][1], stack[-1][2]) if stack else (None, False)
        owner = top if top in owned else parent_owner
        is_sf = top == "sectorflow"
        if owner in owned:
            owned[owner] += self_us
        if is_sf and not parent_sf:
            sectorflow += cum_us
        stack.append((depth, owner, is_sf or parent_sf))
    return owned["numpy"] / 1e3, owned["scipy"] / 1e3, sectorflow / 1e3


def strip_trace_lines(stderr):
    return "\n".join(
        line
        for line in stderr.splitlines()
        if not line.startswith("import time:") and not line.startswith("bench-main-ms ")
    )


class CliCold:
    """Each operation is a fresh interpreter running the command line."""

    name = "cli-cold"
    op_statistic = "median"  # calls of about a second

    def __init__(self, out_dir):
        self.out_dir = out_dir
        src = os.path.abspath("src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.tracer = None

    def _write(self, name, doc):
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def make_round(self, rng):
        ops = []
        for name in ("two_sector", "three_sector_g112", "uniform"):
            path = os.path.join(CONFIG_DIR, name + ".json")
            ops.append(Op("result", "verify", argv=["verify", path]))
        samples = int(rng.uniform(*SAMPLES_RANGE))
        two = load_config("two_sector")
        ops.append(
            Op(
                "result",
                "export",
                argv=[
                    "export", os.path.join(CONFIG_DIR, "two_sector.json"), "--format", "csv",
                    "--samples", str(samples), "--out", os.path.join(self.out_dir, "export.csv"),
                ],
                samples=samples,
                doc=two,
            )
        )
        lo, hi = log(MACH_RANGE[0]), log(MACH_RANGE[1])
        for i in range(CLI_SOLVE_OPS + 1):
            kind = "result" if i < CLI_SOLVE_OPS else "reject"
            gamma = rng.uniform(*GAMMA_RANGE)
            mach = exp(rng.uniform(lo, hi))
            share = rng.uniform(*(ATTACHED_SHARE if kind == "result" else DETACHED_SHARE))
            delta = share * checks.max_deflection(mach, gamma)
            branch = ("weak", "strong")[i % 2]
            ops.append(
                Op(
                    kind,
                    "shock-solve",
                    argv=["shock-solve", "--gamma", repr(gamma), "--mach", repr(mach),
                          "--deflection", repr(delta), "--branch", branch],
                    gamma=gamma, mach=mach, delta=delta, branch=branch,
                )
            )
        for _ in range(CLI_TURN_OPS):
            gamma, mach = rng.uniform(*GAMMA_RANGE), exp(rng.uniform(lo, hi))
            ops.append(
                Op("result", "max-turn", argv=["max-turn", "--gamma", repr(gamma), "--mach", repr(mach)],
                   gamma=gamma, mach=mach)
            )
        for i in range(CLI_TRACE_OPS):
            gamma = rng.uniform(*GAMMA_RANGE)
            argv = [
                "pm-trace", "--gamma", repr(gamma), "--mach", repr(rng.uniform(*PM_MACH_RANGE)),
                "--span", repr(rng.uniform(*PM_SPAN_RANGE)),
                "--orientation", ("forward", "backward")[i % 2],
            ]
            ops.append(Op("result", "pm-trace", argv=argv, gamma=gamma))
        ops.append(Op("reject", "build", argv=["build", os.path.join(CONFIG_DIR, "three_sector_g14.json")]))
        for j in range(CLI_UNCLOSABLE_OPS):
            bad = unclosable(two, scaled_anchor(rng, j, CLI_UNCLOSABLE_OPS))
            path = self._write("unclosable-%d.json" % j, bad)
            ops.append(Op("reject", "build", argv=["build", path], doc=bad))
        rng.shuffle(ops)
        return ops

    def warm_up(self):
        self.run(Op("result", "max-turn", argv=["max-turn", "--gamma", "1.4"]))

    def run(self, op):
        if self.tracer is None:
            argv = [sys.executable, "-c", CHILD]
        else:
            argv = [sys.executable, "-X", "importtime", "-c", CHILD_TRACED]
        start = perf_counter()
        try:
            proc = subprocess.run(
                argv + op.data["argv"], env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT,
            )
        except subprocess.TimeoutExpired as exc:
            return None, exc
        end = perf_counter()
        if self.tracer is not None:
            self._trace(proc.stderr, start, end)
        return proc, None

    def _trace(self, stderr, start, end):
        numpy_ms, scipy_ms, sf_ms = import_times(stderr)
        main_ms = None
        for line in stderr.splitlines():
            if line.startswith("bench-main-ms "):
                main_ms = float(line.split()[1])
        t = self.tracer
        op_span = t.add_span("cli.process", start, end)
        for name, ms in (("import.numpy", numpy_ms), ("import.scipy", scipy_ms),
                         ("import.sectorflow", sf_ms), ("cli.main", main_ms)):
            if ms is not None:
                t.add_span(name, start, start + ms / 1e3, op_span)

    def expect(self, op, out, raised):
        require(raised is None, "%s: %r", op.family, raised)
        rc = out.returncode
        if op.kind == "result":
            require(rc == 0, "%s exited %d: %s", op.family, rc, strip_trace_lines(out.stderr)[-300:])
            return
        want, prefix = (1, "no attached shock: ") if op.family == "shock-solve" else (2, "closure failure: ")
        err = strip_trace_lines(out.stderr)
        require(rc == want, "%s exited %d, expected %d: %s", op.family, rc, want, err[-300:])
        require(err.startswith(prefix), "%s stderr %r does not start with %r", op.family, err[:80], prefix)

    def digest(self, op, out, raised):
        return None  # every call is checked in full

    def check(self, op, out, raised):
        d = op.data
        fam = op.family
        if op.kind == "reject":
            if "doc" in d:
                checks.check_unclosable(d["doc"])
            if fam == "shock-solve":
                require(d["delta"] > checks.max_deflection(d["mach"], d["gamma"]), "deflection is attached")
            return
        if fam == "verify":
            checks.check_audit_document(checks.load_json(out.stdout, "verify output"))
        elif fam == "export":
            with open(d["argv"][-1], encoding="utf-8") as fh:
                text = fh.read()
            theta, anchor = anchor_of(d["doc"])
            checks.check_csv(text, d["doc"]["gas"]["gamma"], d["samples"], theta, anchor)
        elif fam == "shock-solve":
            beta = checks.parse_shock_angle(out.stdout)
            slope = abs(
                checks.deflection(d["mach"], beta + 1e-7, d["gamma"])
                - checks.deflection(d["mach"], beta - 1e-7, d["gamma"])
            ) / 2e-7
            tol = 1e-12 + 6e-10 * slope
            checks.check_shock_angle(d["mach"], d["gamma"], d["delta"], d["branch"], beta, tol)
        elif fam == "max-turn":
            checks.check_max_deflection(d["mach"], d["gamma"], checks.parse_max_turn(out.stdout), 6e-10)
        elif fam == "pm-trace":
            checks.check_pm_trace(out.stdout, d["gamma"])

    def install_trace(self, tracer):
        self.tracer = tracer

    def layer_metrics(self, tracer):
        totals = tracer.per_op()
        out = {
            "import.numpy_ms": tracer.span_metric(totals, "import.numpy", "result", 1e3),
            "import.scipy_ms": tracer.span_metric(totals, "import.scipy", "result", 1e3),
            "import.sectorflow_ms": tracer.span_metric(totals, "import.sectorflow", "result", 1e3),
            "cli.main_ms": tracer.span_metric(totals, "cli.main", "result", 1e3),
        }
        bare = []
        for _ in range(5):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)
            bare.append((perf_counter() - start) * 1e3)
        out["interp.start_ms"] = median(bare)
        return out


WORKLOADS = {cls.name: cls for cls in (CliCold, Flows, SolverSweep)}
