"""Tests of the benchmark's own checkers and a tiny run of each workload.

    python3 bench/selftest.py        # from the root of a checkout, ~15 s

Every checker must pass the program's real output and reject the same
output with one deliberate fault in it. The file name keeps these tests
out of the repository's pytest run.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from math import sin

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import run_rounds  # noqa: E402


def as_tuple(s):
    return (s.rho, s.u, s.v, s.p)


def silent(msg):
    pass


class FlowCheckers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.Flows(None)
        cls.spec = workloads.load_config("two_sector")
        op = cls.wl._op("result", "two_sector", cls.spec)
        out, raised = cls.wl.run(op)
        assert raised is None, raised
        cls.op, cls.out = op, out
        cls.flow, cls.js, cls.csv, cls.doc, cls.svg = out
        cls.gamma = cls.spec["gas"]["gamma"]
        cls.anchor_theta, cls.anchor = workloads.anchor_of(cls.spec)

    def state_at(self, theta):
        return as_tuple(self.wl.flowfield.evaluate(self.flow, theta))

    def test_real_output_passes(self):
        self.wl.check(self.op, self.out, None)

    def test_flux_jump_is_caught(self):
        shock = self.doc["shocks"][0]

        def corrupted(theta):
            rho, u, v, p = self.state_at(theta)
            return (rho, u, v, p * (1.0 + 1e-6)) if theta >= shock else (rho, u, v, p)

        checks.check_jumps(self.state_at, self.gamma, self.doc["shocks"], self.doc["contacts"])
        with self.assertRaises(CheckFailure):
            checks.check_jumps(corrupted, self.gamma, [shock], [])

    def test_entropy_fall_is_caught(self):
        shock = self.doc["shocks"][0]

        def swapped(theta):
            # mirror the jump: the right state now sits on the left
            if theta < shock:
                return self.state_at(shock)
            return self.state_at(shock - checks.JUMP_EPS)

        with self.assertRaises(CheckFailure):
            checks.check_jumps(swapped, self.gamma, [shock], [])

    def test_missing_jump_is_caught(self):
        with self.assertRaises(CheckFailure):
            checks.check_jumps(self.state_at, self.gamma, [self.anchor_theta + 0.01], [])

    def test_open_flow_is_caught(self):
        def drifted(theta):
            rho, u, v, p = self.state_at(theta)
            return (rho * 1.001, u, v, p)

        with self.assertRaises(CheckFailure):
            checks.check_closure(drifted, self.anchor_theta, self.anchor)

    def test_circle_integral_is_caught(self):
        breaks = list(self.doc["shocks"]) + list(self.doc["contacts"])
        for piece in self.flow.interval_pieces:
            breaks += [piece.theta_start, piece.theta_end]
        checks.check_circle_integral(self.state_at, self.gamma, self.anchor_theta, breaks)
        contact = self.doc["contacts"][0]

        def bumped(theta):
            rho, u, v, p = self.state_at(theta)
            return (rho, u, v, p * 1.001) if contact - 0.05 < theta < contact else (rho, u, v, p)

        with self.assertRaises(CheckFailure):
            checks.check_circle_integral(bumped, self.gamma, self.anchor_theta, breaks)

    def test_altered_csv_cell_is_caught(self):
        samples = self.spec["output"]["samples"]
        checks.check_csv(self.csv, self.gamma, samples, self.anchor_theta, self.anchor)
        lines = self.csv.splitlines()
        cells = lines[5].split(",")
        cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
        lines[5] = ",".join(cells)
        with self.assertRaises(CheckFailure):
            checks.check_csv("\n".join(lines), self.gamma, samples, self.anchor_theta, self.anchor)
        with self.assertRaises(CheckFailure):
            checks.check_csv(self.csv, self.gamma, samples + 1, self.anchor_theta, self.anchor)

    def test_failed_audit_is_caught(self):
        doc = json.loads(self.js)
        checks.check_audit_document(doc)
        for key, value in (("verdict", "fail"), ("weak_residual_max", [0, 2e-10, 0, 0]),
                           ("sector_count", 4)):
            bad = dict(doc, **{key: value})
            with self.assertRaises(CheckFailure):
                checks.check_audit_document(bad)

    def test_wrong_total_variation_is_caught(self):
        checks.check_analysis(self.doc, self.state_at, self.gamma)
        bad = dict(self.doc, total_variation=self.doc["total_variation"] * (1.0 + 1e-4))
        with self.assertRaises(CheckFailure):
            checks.check_analysis(bad, self.state_at, self.gamma)

    def test_missing_svg_ray_is_caught(self):
        n_s, n_c = len(self.doc["shocks"]), len(self.doc["contacts"])
        checks.check_svg(self.svg, n_s, n_c)
        with self.assertRaises(CheckFailure):
            checks.check_svg(self.svg, n_s + 1, n_c)
        with self.assertRaises(CheckFailure):
            checks.check_svg(self.svg[:-20], n_s, n_c)

    def test_missing_rejection_is_caught(self):
        closure_error = self.wl.closure_error
        checks.check_rejection(closure_error("x"), closure_error)
        with self.assertRaises(CheckFailure):
            checks.check_rejection(None, closure_error)
        with self.assertRaises(CheckFailure):
            checks.check_rejection(ValueError("piece 2"), closure_error)
        reject = self.wl._op("reject", "two_sector_scaled", self.spec)
        with self.assertRaises(CheckFailure):
            self.wl.expect(reject, self.out, None)

    def test_closable_description_is_not_called_unclosable(self):
        with self.assertRaises(CheckFailure):
            checks.check_unclosable(self.spec)
        checks.check_unclosable(workloads.unclosable(self.spec, 1.03))


class SolverCheckers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.SolverSweep(None)
        cls.ops = cls.wl.make_round(random.Random(5))
        cls.op = next(op for op in cls.ops if op.kind == "result" and op.data["branch"] == "strong")
        cls.out, raised = cls.wl.run(cls.op)
        assert raised is None, raised

    def test_real_output_passes(self):
        self.wl.check(self.op, self.out, None)

    def test_shock_angle_off_by_1e6_is_caught(self):
        d = self.op.data
        beta = self.out[1]
        checks.check_shock_angle(d["mach"], d["gamma"], d["delta"], d["branch"], beta)
        with self.assertRaises(CheckFailure):
            checks.check_shock_angle(d["mach"], d["gamma"], d["delta"], d["branch"], beta + 1e-6)
        with self.assertRaises(CheckFailure):
            checks.check_shock_angle(d["mach"], d["gamma"], d["delta"], "weak", beta)

    def test_max_deflection_is_caught(self):
        d = self.op.data
        with self.assertRaises(CheckFailure):
            checks.check_max_deflection(d["mach"], d["gamma"], self.out[0] * (1.0 + 1e-9))

    def test_rankine_hugoniot_is_caught(self):
        d = self.op.data
        sol = self.out[3]
        front = as_tuple(sol.upstream.to_primitive())
        back = as_tuple(sol.downstream.to_primitive())
        mach_n = d["mach"] * sin(self.out[1])
        checks.check_shock_jump(front, back, d["theta"], d["gamma"], mach_n)
        bad = (back[0], back[1], back[2], back[3] * (1.0 + 1e-9))
        with self.assertRaises(CheckFailure):
            checks.check_shock_jump(front, bad, d["theta"], d["gamma"], mach_n)

    def test_roe_identities_are_caught(self):
        d = self.op.data
        _, _, _, _, _, left, right, matrix, eig = self.out
        args = (as_tuple(left), as_tuple(right), d["theta"], d["gamma"], eig.eigenvalues,
                eig.right.tolist(), eig.left.tolist())
        checks.check_roe(matrix.tolist(), *args)
        bad = matrix.tolist()
        bad[1][2] += 1e-6
        with self.assertRaises(CheckFailure):
            checks.check_roe(bad, *args)

    def test_attached_request_is_not_a_rejection(self):
        with self.assertRaises(CheckFailure):
            checks.check_rejection(None, ValueError, "detached")
        with self.assertRaises(CheckFailure):
            checks.check_rejection(ValueError("branch must be weak"), ValueError, "detached")


class CliCheckers(unittest.TestCase):
    def test_import_tree(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:        50 |         50 |       re",
            "import time:        10 |        160 |     numpy",
            "import time:        20 |         20 |       numpy.linalg",
            "import time:        30 |        210 |     scipy",
            "import time:         5 |        215 |   sectorflow",
            "import time:         7 |        222 | sectorflow.cli",
        ])
        self.assertEqual(workloads.import_times(text), (0.18, 0.03, 0.222))

    def test_printed_outputs(self):
        beta = checks.parse_shock_angle("shock angle: 0.686157553 rad = 39.3139 deg (weak branch)")
        self.assertEqual(beta, 0.686157553)
        self.assertEqual(
            checks.parse_max_turn("max turning angle at M = 2.0000: 22.9735 deg (0.400961866 rad)"),
            0.400961866,
        )
        with self.assertRaises(CheckFailure):
            checks.parse_shock_angle("no attached shock")

    def test_non_sonic_fan_row_is_caught(self):
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        proc = subprocess.run(
            [sys.executable, "-c", workloads.CHILD, "pm-trace", "--gamma", "1.4", "--mach", "2.0"],
            env=env, capture_output=True, text=True, check=True,
        )
        checks.check_pm_trace(proc.stdout, 1.4)
        lines = proc.stdout.splitlines()
        cells = lines[3].split(",")
        cells[2] = repr(float(cells[2]) * 1.01)
        lines[3] = ",".join(cells)
        with self.assertRaises(CheckFailure):
            checks.check_pm_trace("\n".join(lines), 1.4)


class ScriptedWorkload:
    """Operations whose repeats take scripted times on a fake clock."""

    def __init__(self, statistic, durations):
        self.op_statistic = statistic
        self.durations = durations  # per operation, one per round
        self.now = 0.0
        self.calls = {}

    def clock(self):
        return self.now

    def run(self, op):
        n = self.calls.get(op, 0)
        self.calls[op] = n + 1
        self.now += self.durations[op][n]
        return None, None

    def expect(self, op, out, raised):
        pass

    def digest(self, op, out, raised):
        return "same"

    def check(self, op, out, raised):
        pass


class OperationTimes(unittest.TestCase):
    def run_scripted(self, statistic):
        import worker

        ops = [workloads.Op("result", "scripted"), workloads.Op("reject", "scripted")]
        wl = ScriptedWorkload(statistic, {ops[0]: [0.003, 0.001, 0.002], ops[1]: [0.010, 0.030, 0.020]})
        saved = worker.perf_counter
        worker.perf_counter = wl.clock
        try:
            return run_rounds(wl, ops, 0.0, 3, None, silent)
        finally:
            worker.perf_counter = saved

    def test_fastest_repeat(self):
        res = self.run_scripted("fastest")
        self.assertAlmostEqual(res["result_ms"]["p50"], 1.0)
        self.assertAlmostEqual(res["reject_ms"]["p50"], 10.0)
        self.assertAlmostEqual(res["ops_per_s"], 2 / 0.011)

    def test_median_repeat(self):
        res = self.run_scripted("median")
        self.assertAlmostEqual(res["result_ms"]["p50"], 2.0)
        self.assertAlmostEqual(res["reject_ms"]["p50"], 20.0)
        self.assertAlmostEqual(res["ops_per_s"], 2 / 0.022)

    def test_flows_draws_keep_to_the_middle_of_their_slice(self):
        rng = random.Random(3)
        for i in range(8):
            for _ in range(200):
                u = workloads.stratified(rng, i, 8, width=workloads.FLOWS_SLICE_WIDTH)
                self.assertTrue((i + 0.4) / 8 <= u < (i + 0.6) / 8)


class TinyRuns(unittest.TestCase):
    """One round of a few operations of each family, checked as in a run."""

    def setUp(self):
        self.out = tempfile.mkdtemp(prefix="bench-selftest-", dir=".")

    def tearDown(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def one_per_family(self, wl):
        ops, seen = [], set()
        for op in wl.make_round(random.Random(11)):
            if (op.kind, op.family) not in seen:
                seen.add((op.kind, op.family))
                ops.append(op)
        return ops

    def run_tiny(self, cls):
        wl = cls(self.out)
        ops = self.one_per_family(wl)
        tracer = Tracer()
        wl.install_trace(tracer)
        res = run_rounds(wl, ops, 0.0, 1, tracer, silent)
        self.assertTrue(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (len(ops), 0))
        layers = wl.layer_metrics(tracer)
        self.assertTrue(all(v is not None for v in layers.values()), layers)
        return layers

    def test_flows(self):
        layers = self.run_tiny(workloads.Flows)
        self.assertGreater(layers["flowfield.evaluate_calls"], 0)

    def test_solver_sweep(self):
        layers = self.run_tiny(workloads.SolverSweep)
        self.assertGreater(layers["shock.deflection_angle_calls"], 0)

    def test_cli_cold(self):
        layers = self.run_tiny(workloads.CliCold)
        self.assertGreater(layers["import.sectorflow_ms"], layers["import.scipy_ms"])

    def test_run_refuses_a_tree_without_the_program(self):
        empty = tempfile.mkdtemp(prefix="bench-empty-", dir=".")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", "flows",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(empty, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
