"""Checks of the CLI's reports against values computed apart from the program.

Nothing here imports ``strangedual``: every expected value is a closed form
or a brute force on plain integers, written from the definitions in the
source paper.  Each ``check_*`` function returns a list of problems; an
empty list means the report is correct.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

# The Fourier-Mukai matrix on the elliptic K3, as README.md prints it (columns).
FM_COLUMNS_K3 = [[0, -1, -1, -1], [1, 0, 1, 1], [0, 0, 0, -1], [0, 0, 1, 0]]


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def sign_law_pairs(coord_bound: int, degrees) -> int:
    """Unordered pairs on the sign-law grids: n(n+1)/2 per grid.

    The elliptic K3 grid has n = (2b+1)^4 vectors, each generic-K3 grid
    n = (2b+1)^3.
    """
    side = 2 * coord_bound + 1
    n_e, n_g = side**4, side**3
    return n_e * (n_e + 1) // 2 + len(list(degrees)) * n_g * (n_g + 1) // 2


def exclusion_points(r_lo: int, r_hi: int, s_lo: int, s_hi: int, ab_max: int) -> int:
    """Count (r, s, a, b) with 2 <= a+b <= ab_max, r+s | a+b-2, -nu >= 2."""
    count = 0
    for r in range(r_lo, r_hi + 1):
        for s in range(s_lo, s_hi + 1):
            t = r + s
            for total in range(2, ab_max + 1):
                if (total - 2) % t == 0 and (total - 2) // t - (t - 2) >= 2:
                    count += total + 1  # a = 0 .. total
    return count


def ns_dot(a, b) -> int:
    """Intersection on the elliptic K3: sigma^2 = -2, f^2 = 0, sigma.f = 1."""
    return -2 * a[0] * b[0] + a[0] * b[1] + a[1] * b[0]


def wall_class(m: Fraction) -> tuple[int, int]:
    """The primitive D = d_s sigma + d_f f, d_s > 0, with D.(sigma + m f) = 0."""
    h = (m.denominator, m.numerator)
    ds, df = h[0], 2 * h[0] - h[1]
    g = gcd(ds, df)
    return ds // g, df // g


def rank2_strata(x: int, y: int, s: int, m: Fraction) -> list[tuple]:
    """Two-part strata of v = (2, x sigma + y f, s) on the wall at m, by brute force.

    Both parts have rank 1.  Slope equality on the wall means
    xi_1 - xi_2 = t D for the wall class D; the Gieseker order just beyond
    the wall (fiber degree, then chi) needs t >= 0.  A rank-1 part
    (1, c, s_1) is nonempty when c^2 - 2 s_1 >= -2.  Since
    xi_1^2 + xi_2^2 = (xi^2 + t^2 D^2)/2 falls with t, the scan over t stops
    once the two nonemptiness bounds can no longer meet.
    """
    d = wall_class(m)
    dd = ns_dot(d, d)
    xi2 = ns_dot((x, y), (x, y))
    out = []
    t = 0
    while xi2 + t * t * dd + 8 >= 4 * s:
        if (x + t * d[0]) % 2 == 0 and (y + t * d[1]) % 2 == 0:
            c1 = ((x + t * d[0]) // 2, (y + t * d[1]) // 2)
            c2 = (x - c1[0], y - c1[1])
            hi = (ns_dot(c1, c1) + 2) // 2
            lo = s - (ns_dot(c2, c2) + 2) // 2
            for s1 in range(lo, hi + 1):
                if (c1[0], 1 + s1) > (c2[0], 1 + s - s1):
                    out.append(((1, c1, s1), (1, c2, s - s1)))
        t += 1
    return out


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------


def _results(doc: dict) -> dict[str, dict]:
    return {inst["spec"]["name"]: inst["results"] for inst in doc["instances"]}


def check_acceptance(doc: dict) -> list[str]:
    problems = []
    by_name = _results(doc)
    statuses = [r["status"] for res in by_name.values() for r in res.values()]
    if len(statuses) != 15 or any(st != "pass" for st in statuses):
        problems.append(f"expected 15 passing results, got {statuses}")

    spec = {inst["spec"]["name"]: inst["spec"] for inst in doc["instances"]}
    bounds = spec["sign-law"]["bounds"]
    want = sign_law_pairs(bounds["coord_bound"], bounds["degrees"])
    got = by_name["sign-law"]["sign-law"]["pairs_checked"]
    if got != want:
        problems.append(f"sign-law pairs_checked {got} != {want}")

    b = spec["exclusion-sweep"]["bounds"]
    sweep = by_name["exclusion-sweep"]["exclusion-sweep"]
    want = exclusion_points(b["r_lo"], b["r_hi"], b["s_lo"], b["s_hi"], b["ab_max"])
    if sweep["points_checked"] != want:
        problems.append(f"exclusion-sweep points_checked {sweep['points_checked']} != {want}")
    if sweep["h00_exceptions"] != [[2, 2, 9, 9]]:
        problems.append(f"h00 exceptions {sweep['h00_exceptions']} != [(2, 2, 9, 9)]")

    if by_name["fm-matrix"]["fm-verify"]["columns"] != FM_COLUMNS_K3:
        problems.append("transform columns differ from the matrix in README.md")

    # the (2, 2, 9, 9) case study, worked by hand in the source paper
    case = by_name["case-study-2299"]
    got = (
        case["nu"]["nu"],
        case["line-bundle"]["L"]["coeffs"],
        case["line-bundle"]["chi"],
        case["line-bundle"]["h0"],
        case["dimension-match"]["left"],
        case["dimension-match"]["right"],
    )
    want = (-2, [4, 8], 18, 18, comb(18, 9), comb(18, 9))
    if got != want:
        problems.append(f"case study (nu, L, chi, h0, left, right) = {got}, expected {want}")
    return problems


def check_strata(doc: dict, expected: list[dict]) -> list[str]:
    problems = []
    if len(doc["instances"]) != len(expected):
        return [f"{len(doc['instances'])} instances reported, {len(expected)} asked for"]
    for inst, want in zip(doc["instances"], expected):
        name = inst["spec"]["name"]
        text = f"{want['r']}:{want['x']},{want['y']}:{want['s']}"
        if inst["spec"]["params"]["v"] != text:
            problems.append(f"{name}: spec echo {inst['spec']['params']} != {text}")
            continue
        result = inst["results"]["strata-audit"]
        if result["status"] != "pass":
            # only the known instance may fail, and only by its oracle
            # mismatch on sigma - 4f; a mended oracle lets it pass
            walls = result["vectors"][0]["walls"] if want["fails"] else []
            bad = [(w["wall_d"]["coeffs"], w["m_value"]) for w in walls if not w["oracle_match"]]
            if bad != [([1, -4], "6/1")] or not all(
                w["chain_ok"] and w["codim_bound_ok"] and w.get("bound_satisfied", True)
                for w in walls
            ):
                problems.append(f"{name}: status {result['status']}")
        for vec in result["vectors"]:
            for wall in vec["walls"]:
                problems.extend(_check_wall(name, want, wall))
    return problems


def _check_wall(name: str, want: dict, wall: dict) -> list[str]:
    problems = []
    d = tuple(wall["wall_d"]["coeffs"])
    m = Fraction(wall["m_value"])
    h = (m.denominator, m.numerator)  # proportional to sigma + m f
    if ns_dot(d, d) >= 0:
        problems.append(f"{name}: wall {d} has D^2 >= 0")
    if ns_dot(d, h) != 0:
        problems.append(f"{name}: wall {d} is not orthogonal to sigma + {m} f")
    if d != wall_class(m):
        problems.append(f"{name}: wall {d} is not the primitive class at m = {m}")
    if want["r"] == 2:
        brute = len(rank2_strata(want["x"], want["y"], want["s"], m))
        if wall["strata"] != brute:
            problems.append(f"{name}: {wall['strata']} strata at m = {m}, brute force {brute}")
    if "bound" in wall and wall["min_codim"] is not None:
        if wall["min_codim"] < Fraction(wall["bound"]):
            problems.append(f"{name}: min_codim {wall['min_codim']} < bound {wall['bound']}")
    return problems

