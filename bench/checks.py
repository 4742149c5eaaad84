"""Independent checks of sectorflow's outputs.

Nothing here imports sectorflow. Every quantity a check compares against is
recomputed from the Euler fluxes, the oblique-shock relations and the
closed-form detachment angle (NACA 1135), so a fault in the program's own
algebra cannot hide itself. States are plain (rho, u, v, p) tuples.

A check raises CheckFailure with a message naming what is wrong and returns
nothing when the output is right.
"""

import json
import re
import xml.etree.ElementTree as ET
from math import asin, atan, atan2, ceil, cos, hypot, pi, sin, sqrt, tan

TWO_PI = 2.0 * pi
CSV_COLUMNS = "theta,rho,u,v,p,N,L,c,mach_n,s,phi"

# the program's audit tolerances, restated as the acceptance limits
WEAK_TOL = 1e-10
SMOOTH_TOL = 1e-6
ENTROPY_TOL = 1e-10
MAX_SECTORS = 3

# one-sided limits are taken this far inside each piece
JUMP_EPS = 1e-10


class CheckFailure(Exception):
    """An output of the program disagrees with the benchmark's own physics."""


def require(condition, message, *args):
    if not condition:
        raise CheckFailure(message % args if args else message)


def rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def vec_gap(a, b):
    """Largest componentwise difference, scaled by the larger vector."""
    scale = max(1.0, max(abs(x) for x in a), max(abs(y) for y in b))
    return max(abs(x - y) for x, y in zip(a, b)) / scale


# --------------------------------------------------------------- gas physics


def polar(u, v, theta):
    """(N, L): velocity normal and tangential to the ray at theta."""
    st, ct = sin(theta), cos(theta)
    return u * st - v * ct, u * ct + v * st


def sound_speed(state, gamma):
    rho, _, _, p = state
    return sqrt(gamma * p / rho)


def entropy(state, gamma):
    rho, _, _, p = state
    return p / rho ** gamma


def conserved(state, gamma):
    rho, u, v, p = state
    return (rho, rho * u, rho * v, p / (gamma - 1.0) + 0.5 * rho * (u * u + v * v))


def fluxes(state, gamma):
    rho, u, v, p = state
    E = p / (gamma - 1.0) + 0.5 * rho * (u * u + v * v)
    fx = (rho * u, rho * u * u + p, rho * u * v, u * (E + p))
    fy = (rho * v, rho * u * v, rho * v * v + p, v * (E + p))
    return fx, fy


def normal_flux(state, theta, gamma):
    """G = sin(theta) f^x - cos(theta) f^y, continuous across every jump."""
    fx, fy = fluxes(state, gamma)
    st, ct = sin(theta), cos(theta)
    return tuple(st * x - ct * y for x, y in zip(fx, fy))


def tangential_flux(state, theta, gamma):
    """H = cos(theta) f^x + sin(theta) f^y, whose circle integral vanishes."""
    fx, fy = fluxes(state, gamma)
    st, ct = sin(theta), cos(theta)
    return tuple(ct * x + st * y for x, y in zip(fx, fy))


def gauss_legendre(n):
    """Nodes and weights on [-1, 1] by Newton iteration on P_n."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = cos(pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / dp
            x -= step
            if abs(step) < 1e-16:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return nodes, weights


_GL_NODES, _GL_WEIGHTS = gauss_legendre(10)


# ------------------------------------------------------------- flow checks


def check_jumps(state_at, gamma, shocks, contacts):
    """Flux continuity at every listed jump; entropy rises through shocks.

    state_at(theta) returns the right-continuous state. The left limit is
    taken JUMP_EPS below the jump. Across a shock, p / rho^gamma must grow
    in the direction the gas crosses the ray.
    """
    for kind, angles in (("shock", shocks), ("contact", contacts)):
        for theta in angles:
            left, right = state_at(theta - JUMP_EPS), state_at(theta)
            gap = vec_gap(normal_flux(left, theta, gamma), normal_flux(right, theta, gamma))
            require(gap <= 1e-8, "%s at %.12g: rotated flux jumps by %.3e", kind, theta, gap)
            require(
                vec_gap(conserved(left, gamma), conserved(right, gamma)) > 1e-6,
                "%s at %.12g: the state does not jump",
                kind,
                theta,
            )
            if kind == "shock":
                # N > 0 is motion toward decreasing theta, so the gas
                # enters from the right when N > 0 and from the left when N < 0
                N, _ = polar(left[1], left[2], theta)
                rise = entropy(left, gamma) - entropy(right, gamma)
                require(
                    left[0] * N * rise > 0.0,
                    "shock at %.12g: entropy falls along the mass flux",
                    theta,
                )


def check_closure(state_at, anchor_theta, anchor_state):
    """The state just before a full turn returns to the anchor."""
    end = state_at(anchor_theta + TWO_PI - 1e-9)
    gap = vec_gap(end, anchor_state)
    require(gap <= 1e-8, "flow does not return to the anchor (gap %.3e)", gap)


def circle_integral(state_at, gamma, anchor_theta, breaks, panel=0.05):
    """Integral of H over one turn, split at the given angles, and its scale.

    Split at every jump and at the ends of every fan, where H is not smooth,
    each panel gets 10-point Gauss-Legendre.
    """
    edges = sorted({anchor_theta, anchor_theta + TWO_PI} | {
        anchor_theta + (b - anchor_theta) % TWO_PI for b in breaks
    })
    total = [0.0] * 4
    scale = [0.0] * 4
    for a, b in zip(edges, edges[1:]):
        if b - a < 1e-13:
            continue
        n = max(1, int(ceil((b - a) / panel)))
        for k in range(n):
            lo = a + (b - a) * k / n
            half = 0.5 * (b - a) / n
            mid = lo + half
            for x, w in zip(_GL_NODES, _GL_WEIGHTS):
                t = mid + half * x
                h = tangential_flux(state_at(t), t, gamma)
                for i in range(4):
                    total[i] += half * w * h[i]
                    scale[i] += half * w * abs(h[i])
    return total, scale


def check_circle_integral(state_at, gamma, anchor_theta, breaks):
    """G is periodic and continuous at jumps, so the integral of H is 0."""
    total, scale = circle_integral(state_at, gamma, anchor_theta, breaks)
    worst = max(abs(t) / max(1.0, s) for t, s in zip(total, scale))
    require(worst <= 1e-9, "integral of H over the circle is %.3e, not 0", worst)


def check_csv(text, gamma, samples=None, anchor_theta=None, anchor_state=None):
    """Each row agrees with its own (theta, rho, u, v, p); optional ring grid."""
    lines = text.splitlines()
    require(lines and lines[0] == CSV_COLUMNS, "CSV header is %r", lines[0] if lines else "")
    rows = lines[1:]
    if samples is not None:
        require(len(rows) == samples, "CSV has %d rows, expected %d", len(rows), samples)
    require(rows, "CSV has no rows")
    for j, line in enumerate(rows):
        cells = line.split(",")
        require(len(cells) == 11, "CSV row %d has %d cells", j, len(cells))
        theta, rho, u, v, p, N, L, c, mach_n, s, phi = (float(x) for x in cells)
        state = (rho, u, v, p)
        if samples is not None:
            want = anchor_theta + TWO_PI * j / samples
            require(rel_gap(theta, want) <= 1e-12, "CSV row %d: theta %r off the ring", j, theta)
        n_want, l_want = polar(u, v, theta)
        c_want = sound_speed(state, gamma)
        phi_want = atan2(v, u)
        if phi_want == -pi:
            phi_want = pi
        expected = (
            ("N", N, n_want),
            ("L", L, l_want),
            ("c", c, c_want),
            ("mach_n", mach_n, n_want / c_want),
            ("s", s, entropy(state, gamma)),
            ("phi", phi, phi_want),
        )
        for name, got, want in expected:
            require(
                rel_gap(got, want) <= 1e-9,
                "CSV row %d: %s = %r, its own state gives %r",
                j,
                name,
                got,
                want,
            )
        if j == 0 and anchor_state is not None:
            gap = vec_gap(state, anchor_state)
            require(gap <= 1e-9, "CSV row 0 is not the anchor state (gap %.3e)", gap)
    return [tuple(float(x) for x in line.split(",")) for line in rows]


def check_audit_document(doc):
    """The JSON audit report passes on the benchmark's own limits."""
    require(doc.get("verdict") == "pass", "audit verdict is %r", doc.get("verdict"))
    weak = max(doc["weak_residual_max"])
    require(weak <= WEAK_TOL, "weak-form residual %.3e above %.0e", weak, WEAK_TOL)
    smooth = max(doc["smooth_residual_max"])
    require(smooth <= SMOOTH_TOL, "smooth residual %.3e above %.0e", smooth, SMOOTH_TOL)
    require(doc["entropy_min"] >= -ENTROPY_TOL, "entropy production %r < 0", doc["entropy_min"])
    require(not doc["entropy_violations"], "audit lists entropy violations")
    bad = [a for a in doc["admissibility"] if not a["ok"]]
    require(not bad, "inadmissible discontinuities: %r", bad)
    require(doc["structure"]["ok"], "structure checks fail")
    require(1 <= doc["sector_count"] <= MAX_SECTORS, "sector count %r", doc["sector_count"])


def check_analysis(doc, state_at, gamma):
    """Sector bound, and total variation equal to the sum of |dU| at jumps."""
    require(len(doc["sectors"]) <= MAX_SECTORS, "%d sectors", len(doc["sectors"]))
    tv = 0.0
    for theta in list(doc["shocks"]) + list(doc["contacts"]):
        du = [
            b - a
            for a, b in zip(
                conserved(state_at(theta - JUMP_EPS), gamma),
                conserved(state_at(theta), gamma),
            )
        ]
        tv += sqrt(sum(d * d for d in du))
    got = doc["total_variation"]
    require(
        abs(got - tv) <= 1e-6 * max(1.0, tv),
        "total_variation %r, the jumps add up to %r",
        got,
        tv,
    )


_SVG = "{http://www.w3.org/2000/svg}"


def check_svg(text, n_shocks, n_contacts):
    """The figure parses and draws one ray per shock and per contact."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckFailure("SVG does not parse: %s" % exc)
    rays = [
        el
        for el in root.iter(_SVG + "line")
        if el.get("x1") == "0" and el.get("y1") == "0"
    ]
    shocks = sum(1 for el in rays if el.get("stroke") == "#c0392b")
    contacts = sum(1 for el in rays if el.get("stroke-dasharray"))
    require(shocks == n_shocks, "SVG draws %d shock rays for %d shocks", shocks, n_shocks)
    require(
        contacts == n_contacts, "SVG draws %d contact rays for %d contacts", contacts, n_contacts
    )


def check_unclosable(doc):
    """Prove that a description cannot close, before expecting a rejection.

    After the final contact the gas moves along the ray with speed |L|, and
    that constant state runs to the seam; an anchor of any other speed can
    never be met.
    """
    last = doc["pieces"][-1]
    require(last["kind"] == "contact", "the last piece is not a contact")
    a = doc["anchor"]
    speed = hypot(a["u"], a["v"])
    require(
        abs(speed - abs(last["L"])) > 1e-3 * abs(last["L"]),
        "anchor speed %r equals the final contact's |L|, so it may close",
        speed,
    )


def check_rejection(raised, expected_type, marker=""):
    """The operation raised the expected exception, with marker in its text."""
    require(raised is not None, "expected %s, but the operation succeeded", expected_type.__name__)
    require(
        isinstance(raised, expected_type),
        "expected %s, got %s: %s",
        expected_type.__name__,
        type(raised).__name__,
        raised,
    )
    require(marker in str(raised), "%s does not mention %r: %s", expected_type.__name__, marker, raised)


# ------------------------------------------------------- oblique shocks


def deflection(mach, beta, gamma):
    """Flow turning of an oblique shock at shock angle beta (theta-beta-M)."""
    m2 = mach * mach
    s = sin(beta)
    return atan(2.0 * (m2 * s * s - 1.0) / tan(beta) / (m2 * (gamma + cos(2.0 * beta)) + 2.0))


def detachment_angle(mach, gamma):
    """Shock angle of largest deflection, closed form (NACA 1135)."""
    m2 = mach * mach
    root = sqrt((gamma + 1.0) * (1.0 + 0.5 * (gamma - 1.0) * m2 + (gamma + 1.0) * m2 * m2 / 16.0))
    return asin(sqrt(((gamma + 1.0) * m2 / 4.0 - 1.0 + root) / (gamma * m2)))


def max_deflection(mach, gamma):
    return deflection(mach, detachment_angle(mach, gamma), gamma)


def check_shock_angle(mach, gamma, delta, branch, beta, tol=1e-12):
    """beta solves theta-beta-M for delta on the requested branch."""
    require(asin(1.0 / mach) < beta < 0.5 * pi, "shock angle %r outside (mu, pi/2)", beta)
    miss = abs(deflection(mach, beta, gamma) - delta)
    require(miss <= tol, "shock angle %r misses the deflection by %.3e", beta, miss)
    peak = detachment_angle(mach, gamma)
    if branch == "weak":
        require(beta < peak, "weak-branch angle %r is past detachment %r", beta, peak)
    else:
        require(beta > peak, "strong-branch angle %r is below detachment %r", beta, peak)


def check_max_deflection(mach, gamma, got, tol=1e-12):
    want = max_deflection(mach, gamma)
    require(abs(got - want) <= tol, "max deflection %r, closed form gives %r", got, want)


def check_shock_jump(front, back, theta, gamma, mach_n):
    """Rankine-Hugoniot, normal-shock ratios, entropy rise and Lax."""
    gap = vec_gap(normal_flux(front, theta, gamma), normal_flux(back, theta, gamma))
    require(gap <= 1e-12, "Rankine-Hugoniot jump of the flux is %.3e", gap)
    m2 = mach_n * mach_n
    n_front, l_front = polar(front[1], front[2], theta)
    n_back, l_back = polar(back[1], back[2], theta)
    want = (
        ("normal Mach", abs(n_front) / sound_speed(front, gamma), mach_n),
        ("density ratio", back[0] / front[0], (gamma + 1.0) * m2 / ((gamma - 1.0) * m2 + 2.0)),
        ("pressure ratio", back[3] / front[3], 1.0 + 2.0 * gamma * (m2 - 1.0) / (gamma + 1.0)),
        ("tangential velocity", l_back, l_front),
    )
    for name, got, expected in want:
        require(rel_gap(got, expected) <= 1e-11, "%s %r, expected %r", name, got, expected)
    require(entropy(back, gamma) > entropy(front, gamma), "entropy does not rise")
    require(abs(n_back) < sound_speed(back, gamma), "back side is not subsonic normal")


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def check_roe(matrix, left, right, theta, gamma, eigenvalues, right_vectors, left_vectors):
    """A dU = dG exactly, and R diag(lambda) L rebuilds A."""
    du = [b - a for a, b in zip(conserved(left, gamma), conserved(right, gamma))]
    dg = [b - a for a, b in zip(normal_flux(left, theta, gamma), normal_flux(right, theta, gamma))]
    adu = [sum(matrix[i][k] * du[k] for k in range(4)) for i in range(4)]
    scale = max(1.0, max(abs(x) for x in dg), max(abs(x) for x in adu))
    gap = max(abs(x - y) for x, y in zip(adu, dg)) / scale
    require(gap <= 1e-10, "A dU differs from the flux jump by %.3e", gap)
    lam = [[right_vectors[i][j] * eigenvalues[j] for j in range(4)] for i in range(4)]
    rebuilt = _matmul(lam, left_vectors)
    mscale = max(1.0, max(abs(x) for row in matrix for x in row))
    gap = max(abs(rebuilt[i][j] - matrix[i][j]) for i in range(4) for j in range(4)) / mscale
    require(gap <= 1e-10, "eigen-reconstruction differs from A by %.3e", gap)


# -------------------------------------------------------- CLI text outputs

_ANGLE_RAD = re.compile(r"shock angle: ([0-9.eE+-]+) rad")
_MAX_TURN_RAD = re.compile(r"max turning angle at M = [0-9.]+: [0-9.]+ deg \(([0-9.eE+-]+) rad\)")

# printed with 9 decimals: half a unit in the last place, times a slope <= 1,
# is 5e-10; the rest is headroom
PRINTED_TOL = 2e-9


def parse_shock_angle(stdout):
    m = _ANGLE_RAD.search(stdout)
    require(m is not None, "no shock angle in %r", stdout[:200])
    return float(m.group(1))


def parse_max_turn(stdout):
    m = _MAX_TURN_RAD.search(stdout)
    require(m is not None, "no max turning angle in %r", stdout[:200])
    return float(m.group(1))


def check_pm_trace(text, gamma):
    """Every row of a traced fan is sonic and on one isentrope."""
    rows = check_csv(text, gamma)
    s0 = rows[0][9]
    for j, row in enumerate(rows):
        theta, rho, u, v, p = row[:5]
        N, _ = polar(u, v, theta)
        c = sound_speed((rho, u, v, p), gamma)
        require(rel_gap(abs(N), c) <= 1e-9, "pm-trace row %d: |N| %r but c %r", j, abs(N), c)
        require(rel_gap(row[9], s0) <= 1e-9, "pm-trace row %d leaves the isentrope", j)


def load_json(text, what):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckFailure("%s is not JSON: %s" % (what, exc))
