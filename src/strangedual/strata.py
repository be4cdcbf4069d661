"""Walls in the ample cone and Harder-Narasimhan stratum audits.

On the elliptic K3 the polarizations of interest are H = sigma + m.f with
m > 2.  A wall for a vector v of rank r >= 2 is cut out by an integral class
D with D.H = 0, D^2 < 0 arising as r.xi_1 - r_1.xi for a lower-rank class;
each wall carries the exact rational m where the ray crosses it.  On a wall
the semistable locus can shrink, and the complement is a union of stacks of
filtrations with slope-equal semistable quotients.  Their dimensions are

    dim F = sum_i dim M(v_i)^ss + sum_{i<j} <v_i, v_j>,

with the three-case stack dimension of a single class (q = <v^2>,
l = gcd of the coordinates): q + 1 for q > 0, l for q = 0, and -l^2 for
q = -2l^2; anything below that is empty.

All slope comparisons are exact rationals.  The enumerator prunes through
the identity

    <v^2>/2 = sum_i (r/r_i) <v_i^2>/2 - sum_{i<j} (r_i xi_j - r_j xi_i)^2 / (2 r_i r_j)

combined with the per-part bound <v_i^2> >= -2 r_i^2: both the multiples of
the wall class and the degree-4 components then range over provably finite
sets, and an independent box brute force must (and, in the tests, does)
recover the same stratum list.

The three enumerators (``wall_enumerate``, ``strata_enumerate`` and the
oracle ``strata_box_oracle``) walk plain c1 coefficient tuples and pair them
through the model's Gram matrix.  ``NSClass``, ``Fraction`` and ``Wall`` are
built only for the walls returned, so a ``Wall`` still validates itself on
every kept wall.  A ``Stratum`` stays on integers: each part is the triple
(rank, c1 coefficients, s), so a stratum is its own key.  The searches
append to lists, and ``Stratum``, ``ChainAudit`` and ``CodimAudit`` are
built with ``tuple.__new__``.

A wall is audited in one pass: one ``strata_enumerate`` call lists the
strata of every part count, building each part's slot window once and
skipping the part counts that cannot carry a stratum, and one
``chain_audit`` call audits them all.  The pairing-sum chain reads the part
triples: each of its lines is a sum of terms over 2 r_i, 2 r_i r_j and 2r,
so with N = 2 r prod(r_i) each integer line is the typed line times N.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import NamedTuple

from .surfaces import (
    ELLIPTIC_K3,
    MissingParamsError,
    ModelMismatchError,
    MukaiVector,
    NothingToExamineError,
    NSClass,
    SurfaceModel,
    mukai_pair,
    ns_pair,
)


def _stack_dim(r: int, c1sq: int, c1_content: int, s: int) -> int | None:
    """Dimension of the stack of semistable sheaves of class (r, c1, s) on a K3 (generic H).

    It reads c1^2 and gcd(c1): <v, v> = c1^2 - 2rs, and the gcd of v's
    coordinates is gcd(r, gcd of c1's coefficients, s).  None means the
    class admits no semistable sheaf at all.
    """
    q = c1sq - 2 * r * s
    if q > 0:
        return q + 1
    el = gcd(r, c1_content, s)
    if q == 0:
        return el
    if q < -2 * el * el:
        return None
    # the pairing is even, so q >= -2l^2 and q < 0 force q = -2l^2:
    # l copies of the unique rigid stable sheaf, a BGL(l) stack
    assert q == -2 * el * el
    return -el * el


def _gram_dot(gram, a: tuple[int, int], b: tuple[int, int]) -> int:
    """a.b for c1 coefficient tuples on an elliptic model with Gram matrix gram."""
    (g00, g01), (_, g11) = gram
    return g00 * a[0] * b[0] + g01 * (a[0] * b[1] + a[1] * b[0]) + g11 * a[1] * b[1]


def _nonempty_slots(r: int, c1: tuple[int, ...], c1sq: int, slots: range) -> list[tuple[int, int]]:
    """(s, stack dimension) for each slot s whose class (r, c1, s) is nonempty.

    ``c1`` is a coefficient tuple and ``c1sq`` its square.
    """
    content = gcd(*c1)
    out = []
    for s in slots:
        dim = _stack_dim(r, c1sq, content, s)
        if dim is not None:
            out.append((s, dim))
    return out


class _WallFields(NamedTuple):
    d: NSClass
    m_value: Fraction


class Wall(_WallFields):
    """A wall crossed by H = sigma + m.f at the exact rational m_value.

    Every construction checks the wall: ``_make``, and with it ``_replace``,
    goes through ``__new__`` as a direct call does.
    """

    __slots__ = ()

    def __new__(cls, d: NSClass, m_value: Fraction):
        if d.is_zero:
            raise ValueError("a wall class is nonzero")
        if ns_pair(d, d) >= 0:
            raise ValueError("a wall class has negative square")
        if ns_pair(d, _ample_ray_class(d.model, m_value)) != 0:
            raise ValueError("m_value does not lie on the wall")
        return super().__new__(cls, d, m_value)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _ample_ray_class(model: SurfaceModel, m: Fraction) -> NSClass:
    """The integral class proportional to sigma + m.f."""
    return model.cls(m.denominator, m.numerator)


def _has_witness(r: int, xi: tuple[int, ...], d: tuple[int, ...]) -> bool:
    """Whether r.xi_1 - r_1.xi = t.d for an integral xi_1, some 1 <= r_1 < r and 1 <= t <= r."""
    (x0, x1), (d0, d1) = xi, d
    for r1 in range(1, r):
        for t in range(1, r + 1):
            if (r1 * x0 + t * d0) % r == 0 and (r1 * x1 + t * d1) % r == 0:
                return True
    return False


def wall_enumerate(v: MukaiVector, coeff_bound: int) -> list[Wall]:
    """All walls for v with wall-class coefficients bounded by coeff_bound.

    Candidate classes D = d_s.sigma + d_f.f run over the box
    |d_s|, |d_f| <= coeff_bound; a candidate is a wall when D^2 < 0, the
    crossing value m = 2 - d_f/d_s lies in the ample range m > 2, and D is
    generated as r.xi_1 - r_1.xi by an integral lower-rank witness.  Walls
    outside the box exist in general: certifications quoting this
    enumeration are relative to the bound.

    A wall is listed by its primitive class, with d_s >= 1.  There
    D^2 = 2 d_s (d_f - d_s) and m > 2 both read d_f < 0, and the primitive
    class of every candidate lies in the box, so the walk runs over the
    primitive pairs (d_s, d_f) with d_f < 0 alone.
    """
    if v.model.kind != ELLIPTIC_K3:
        raise ModelMismatchError("walls are enumerated on the elliptic K3 model")
    if v.r < 2:
        raise ValueError("wall enumeration needs rank >= 2")
    model, xi = v.model, v.c1.coeffs
    walls = []
    for ds in range(1, coeff_bound + 1):
        for df in range(-coeff_bound, 0):
            if gcd(ds, df) != 1:
                continue
            if _has_witness(v.r, xi, (ds, df)):
                walls.append(Wall(NSClass(model, (ds, df)), Fraction(2 * ds - df, ds)))
    return sorted(walls, key=lambda w: (w.m_value, w.d.coeffs))


class SuitabilityReport(NamedTuple):
    suitable: bool
    max_wall: Fraction | None
    coeff_bound: int
    note: str


def is_suitable(m: Fraction | int, v: MukaiVector, coeff_bound: int) -> SuitabilityReport:
    """Whether H = sigma + m.f lies beyond every enumerated wall for v.

    The verdict is certified only relative to the coefficient bound used for
    the wall enumeration, and says so.
    """
    m = Fraction(m)
    if m <= 2:
        raise ValueError("the ample range is m > 2")
    if v.r < 2:
        return SuitabilityReport(
            True, None, coeff_bound, "rank < 2: no proper sub-ranks, vacuously suitable"
        )
    walls = wall_enumerate(v, coeff_bound)
    max_wall = max((w.m_value for w in walls), default=None)
    suitable = max_wall is None or m > max_wall
    return SuitabilityReport(
        suitable,
        max_wall,
        coeff_bound,
        f"certified relative to wall classes with coefficients <= {coeff_bound}",
    )


# ---------------------------------------------------------------------------
# Strata
# ---------------------------------------------------------------------------


class Stratum(NamedTuple):
    """An ordered filtration type: slope-equal parts summing to v.

    Each part is (rank, c1 coefficients, s) on v's model, so two strata of
    one wall are equal exactly when they are the same filtration type.
    """

    parts: tuple[tuple[int, tuple[int, ...], int], ...]
    dims: tuple[int, ...]
    total_dim: int


def _compositions(total: int, parts: int):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _ceil_div(n: int, d: int) -> int:
    return -((-n) // d)


def _part_count_bound(r: int, xi: tuple, d: tuple, dsq: int, budget: int) -> int:
    """The largest part count a stratum of v = (r, xi, s) can have on the wall of class d.

    Two integral parts i, j of different slope directions have a spread
    r_i t_j - r_j t_i that is a nonzero multiple of step = r / gcd(r, d) (r on
    a primitive wall), and ``_t_tuples`` needs step^2 |D^2| <= budget r_i r_j r^2.
    Among k parts the largest r_i r_j, floor(m/2) ceil(m/2) for m = r - k + 2,
    falls in k.  The all-zero t-tuple has no spread and is integral for k
    parts exactly when k <= gcd(r, xi): those counts are never cut.
    """
    spread = (r // gcd(r, *d)) ** 2 * dsq
    for k in range(2, r + 1):
        m = r - k + 2  # the largest r_i + r_j among k parts
        if k > gcd(r, *xi) and spread > budget * r * r * (m // 2) * ((m + 1) // 2):
            return k - 1
    return r


def strata_enumerate(v: MukaiVector, wall: Wall) -> list[Stratum]:
    """All filtration types with 2..r slope-equal parts on the wall.

    They come by part count, and within it parts are ordered by strictly
    decreasing Gieseker keys for a polarization just beyond the wall: first
    by the slope direction t_i/r_i (where r.xi_i - r_i.xi = t_i.D), then by
    chi_i/r_i.  Ties in both keys admit no filtration and are excluded.
    Part counts above ``_part_count_bound`` are not searched.

    A part is fixed by (r_i, t_i) whatever the part count, and so are its
    c1, c1^2 and window of nonempty slots: each is built once per call, on
    the first t-tuple that holds the part, and kept only until the call
    returns.
    """
    if v.model.kind != ELLIPTIC_K3:
        raise ModelMismatchError("strata are enumerated on the elliptic K3 model")
    r = v.r
    gram, xi, d = v.model.gram, v.c1.coeffs, wall.d.coeffs
    (x0, x1), (d0, d1) = xi, d
    q_v = _gram_dot(gram, xi, xi) - 2 * r * v.s
    dsq = -_gram_dot(gram, d, d)  # |D^2| > 0
    budget = q_v + 2 * r * r
    if budget < 0:
        return []

    h1 = (wall.m_value.denominator, wall.m_value.numerator)  # on the ray sigma + m.f
    mu_num = _gram_dot(gram, xi, h1)

    out: list[Stratum] = []
    records = {}  # (r_i, t_i) -> (c1, c1^2, window, its slots, slot -> dimension)
    top = _part_count_bound(r, xi, d, dsq, budget)  # no larger part count carries a stratum
    for ranks in (ranks for k in range(2, top + 1) for ranks in _compositions(r, k)):
        t_bounds = [isqrt((ri * ri * budget * r * r) // dsq) + 1 for ri in ranks]
        for ts in _t_tuples(ranks, t_bounds, budget, dsq, r, xi, d):
            parts = []
            for key in zip(ranks, ts):
                part = records.get(key)
                if part is None:
                    ri, ti = key
                    c1 = ((ri * x0 + ti * d0) // r, (ri * x1 + ti * d1) // r)
                    # slope equality on the wall is built in; assert it anyway
                    assert r * _gram_dot(gram, c1, h1) == ri * mu_num
                    c1sq = _gram_dot(gram, c1, c1)
                    hi = (c1sq + 2 * ri * ri) // (2 * ri)  # <v_i^2> >= -2 r_i^2
                    # complement bound <v_i^2> <= r_i q_v / r + 2 r_i (r - r_i), times r
                    lo = _ceil_div(r * c1sq - ri * q_v - 2 * r * ri * (r - ri), 2 * r * ri)
                    window = _nonempty_slots(ri, c1, c1sq, range(lo, hi + 1))
                    part = records[key] = (c1, c1sq, window, [s for s, _ in window], dict(window))
                if not part[2]:
                    break
                parts.append(part)
            else:
                _fill_degree_components(v, ranks, ts, parts, q_v, out)
    return out


def _t_tuples(ranks, t_bounds, budget, dsq, r, xi_coeffs, d_coeffs):
    """Zero-sum tuples (t_i) within the pairwise slope budget and integral parts.

    Lists, in lexicographic order, the integer tuples with |t_i| <= t_bounds[i]
    and sum 0 such that every pair obeys
    (r_i t_j - r_j t_i)^2 |D^2| <= budget r_i r_j r^2, every part class
    (r_i xi + t_i D)/r is integral, and the first Gieseker keys t_i/r_i do
    not rise: t_i r_{i+1} >= t_{i+1} r_i.

    Integrality holds on one residue class of t_i modulo r / gcd(r, d_s, d_f), so
    each t_i runs over an arithmetic progression, and the last entry
    -sum(prefix) is tested against its own.  Each t_j is capped by the
    previous key, t_j <= t_{j-1} r_j / r_{j-1}, and bounded below because
    the later parts, whose keys do not exceed t_j/r_j, must bring the sum
    back to 0: t_j (r_j + R) >= -sum(prefix) r_j for R the rank left after
    part j.  Appending t_j checks only the new pairs (i, j) against
    precomputed limits.
    """
    k = len(ranks)
    (x0, x1), (d0, d1) = xi_coeffs, d_coeffs
    step = r // gcd(r, d0, d1)
    candidates = []
    for ri, bound in zip(ranks, t_bounds):
        for residue in range(step):
            if (ri * x0 + residue * d0) % r == 0 and (ri * x1 + residue * d1) % r == 0:
                break
        else:
            return []
        first = residue - (residue + bound) // step * step  # the least one >= -bound
        candidates.append(range(first, bound + 1, step))
    limits = [[budget * ri * rj * r * r for rj in ranks] for ri in ranks]
    rest = [r - sum(ranks[: j + 1]) for j in range(k)]  # the rank after part j
    rk, last_cands = ranks[-1], candidates[-1]
    out = []

    def fits(prefix, j, tj):
        rj, lim = ranks[j], limits[j]
        for i, ti in enumerate(prefix):
            if (ranks[i] * tj - rj * ti) ** 2 * dsq > lim[i]:
                return False
        return True

    def rec(prefix, total):
        # parts 0 .. j-1 are chosen and sum to total; part k-1 takes -total
        j = len(prefix)
        rj, cands = ranks[j], candidates[j]
        lo = bisect_left(cands, _ceil_div(-total * rj, rj + rest[j]))
        hi = bisect_right(cands, prefix[-1] * rj // ranks[j - 1]) if j else len(cands)
        for t in cands[lo:hi]:
            if not fits(prefix, j, t):
                continue
            chosen = prefix + (t,)
            if j < k - 2:
                rec(chosen, total + t)
                continue
            last = -total - t
            if last in last_cands and last * rj <= t * rk and fits(chosen, k - 1, last):
                out.append(chosen + (last,))

    rec((), 0)
    return out


def _fill_degree_components(v, ranks, ts, parts, q_v, out):
    """Append the strata of one t-tuple to out, in lexicographic slot order.

    ``parts`` holds each part's record from ``strata_enumerate``: c1 as a
    coefficient tuple, c1^2, and its window, the slots within the
    Bogomolov/complement bounds whose class admits a semistable sheaf (never
    empty).  Parts come in strictly decreasing Gieseker keys (t_i/r_i, then
    chi_i/r_i); the t-tuples never let the first keys rise, so only where two
    neighbours tie in them must chi_i/r_i = s_i/r_i + 1 fall.  The slot
    tuples summing to v.s are taken from the product of the windows,
    skipping every slot that leaves the later parts no reachable sum or
    fails a tie; the sums each stratum needs run along with the choice.
    """
    k = len(ranks)
    ties = []  # per neighbour pair: equal first keys, so chi_i/r_i decides
    for i in range(k - 1):
        left, right = ts[i] * ranks[i + 1], ts[i + 1] * ranks[i]
        assert left >= right
        ties.append(left == right)
    c1s = [part[0] for part in parts]
    windows = [part[2] for part in parts]
    slots = [part[3] for part in parts]
    last_dims = parts[-1][4]
    # the slots of parts i, i+1, .. sum to between rest_lo[i] and rest_hi[i]
    rest_lo, rest_hi = [0] * (k + 1), [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        rest_lo[i] = rest_lo[i + 1] + slots[i][0]
        rest_hi[i] = rest_hi[i + 1] + slots[i][-1]
    rk, c1k, last_tied = ranks[-1], c1s[-1], ties[-1]
    # sum_{i<j} <v_i, v_j> = (<v^2> - sum_i <v_i^2>)/2 as the parts sum to v,
    # with sum_i <v_i^2> = sum_i c1_i^2 - 2 sum_i r_i s_i
    q_rest = q_v - sum(part[1] for part in parts)

    def rec(i, chosen, dims, rest, rs, dim_sum):
        # chosen: parts 0 .. i-1; rs = sum r_j s_j and dim_sum = sum dims over them
        ri, c1 = ranks[i], c1s[i]
        # only slots that leave the later parts a reachable sum
        lo = bisect_left(slots[i], rest - rest_hi[i + 1])
        hi = bisect_right(slots[i], rest - rest_lo[i + 1])
        if i and ties[i - 1]:
            # on a tie with part i - 1 the slot must fall: s_i r_{i-1} < s_{i-1} r_i
            hi = min(hi, bisect_left(slots[i], _ceil_div(chosen[-1][2] * ri, ranks[i - 1])))
        if i < k - 2:
            for s, dim in windows[i][lo:hi]:
                rec(i + 1, chosen + ((ri, c1, s),), dims + (dim,), rest - s, rs + ri * s,
                    dim_sum + dim)
            return
        # the last part takes the rest
        for s, dim in windows[i][lo:hi]:
            last = rest - s
            last_dim = last_dims.get(last)
            if last_dim is None or (last_tied and last * ri >= s * rk):
                continue
            pair_sum = (q_rest + 2 * (rs + ri * s + rk * last)) // 2
            out.append(tuple.__new__(Stratum, (
                chosen + ((ri, c1, s), (rk, c1k, last)),
                dims + (dim, last_dim),
                dim_sum + dim + last_dim + pair_sum,
            )))

    rec(0, (), (), v.s, 0, 0)


def unordered_count(strata: list[Stratum]) -> int:
    """Number of distinct part multisets among the enumerated filtration types.

    The strata of one wall live on one model, so a multiset is keyed on the
    sorted parts.
    """
    return len({tuple(sorted(st.parts)) for st in strata})


def strata_box_oracle(v: MukaiVector, wall: Wall) -> list[Stratum]:
    """Brute-force two-part strata from a box sized by v, no pruning identity.

    Enumerates every first part p1 = (r1, xi1, s1) with xi1 = x1.sigma +
    y1.f in the box below, takes p2 = v - p1 = (r2, xi2, s2) as second part,
    and filters by the raw constraints: slope equality on the wall,
    nonemptiness of both parts, and strictly decreasing Gieseker keys just
    beyond the wall (fiber-degree slope, then reduced chi).  Neither the
    wall class nor the t-multiple parametrization of the pruned enumerator
    is used.

    The box.  Write v = (r, xi, s) with xi = x.sigma + y.f, and
    E = r.xi1 - r1.xi = r2.xi1 - r1.xi2.  Expanding <p_i^2> = xi_i^2 - 2 r_i s_i
    gives the identity

        (r/r1) <p1^2> + (r/r2) <p2^2> = <v^2> + E^2 / (r1 r2).

    * Bogomolov: a nonempty class has <p_i^2> >= -2 r_i^2, so the left side
      is at least -2r^2, and -E^2 <= B = r1 r2 (<v^2> + 2r^2).
    * Slope equality on the wall: E.H = 0 for H = sigma + m.f.  With
      E = e.sigma + g.f this reads g = (2 - m)e.
    * Hodge index, explicit on this lattice: E^2 = -2e^2 + 2eg = -2(m - 1)e^2,
      negative unless E = 0, because m > 2.

    Hence 2(m - 1)e^2 <= B, and x1 = (r1.x + e)/r lies within
    (r1.x +- e_max)/r for e_max the largest e allowed.  At each x1 slope
    equality r.(xi1.H) = r1.(xi.H) fixes y1, which must be an integer.
    Bogomolov on each part then bounds s1 from both sides:
    s1 <= (xi1^2 + 2r1^2)/(2r1) and s2 <= (xi2^2 + 2r2^2)/(2r2).  A class
    outside these bounds has <p^2> < -2r^2 <= -2l^2 for l its content, so
    ``_stack_dim`` rejects it: the box drops no stratum.
    """
    if v.model.kind != ELLIPTIC_K3:
        raise ModelMismatchError("strata are enumerated on the elliptic K3 model")
    if wall.m_value <= 2:
        raise ValueError("the ample range is m > 2")
    gram = v.model.gram
    r, s = v.r, v.s
    xi = x, y = v.c1.coeffs
    q_v = _gram_dot(gram, xi, xi) - 2 * r * s
    den, num = wall.m_value.denominator, wall.m_value.numerator
    h1 = (den, num)  # den.sigma + num.f on the ray sigma + m.f
    xi_h = _gram_dot(gram, xi, h1)
    sigma_h = _gram_dot(gram, (1, 0), h1)
    fiber_h = _gram_dot(gram, (0, 1), h1)  # = den > 0
    out = []
    for r1 in range(1, r):
        r2 = r - r1
        budget = r1 * r2 * (q_v + 2 * r * r)
        if budget < 0:
            continue
        # 2(m - 1)e^2 <= B with m = num/den
        e_max = isqrt(den * budget // (2 * (num - den)))
        for x1 in range(_ceil_div(r1 * x - e_max, r), (r1 * x + e_max) // r + 1):
            # slope equality: r (x1 sigma.H + y1 f.H) = r1 xi.H
            y_num = r1 * xi_h - r * x1 * sigma_h
            if y_num % (r * fiber_h):
                continue
            y1 = y_num // (r * fiber_h)
            x2 = x - x1
            c1, c2 = (x1, y1), (x2, y - y1)
            c1sq, c2sq = _gram_dot(gram, c1, c1), _gram_dot(gram, c2, c2)
            s_hi = (c1sq + 2 * r1 * r1) // (2 * r1)
            s_lo = s - (c2sq + 2 * r2 * r2) // (2 * r2)
            dims2 = dict(_nonempty_slots(r2, c2, c2sq, range(s - s_hi, s - s_lo + 1)))
            cross = _gram_dot(gram, c1, c2)
            for s1, d1 in _nonempty_slots(r1, c1, c1sq, range(s_lo, s_hi + 1)):
                s2 = s - s1
                d2 = dims2.get(s2)
                if d2 is None:
                    continue
                # keys (xi_i.f/r_i, chi_i/r_i) with xi_i.f = x_i and
                # chi_i/r_i = s_i/r_i + 1, compared times r1 r2
                if (x1 * r2, s1 * r2) <= (x2 * r1, s2 * r1):
                    continue
                total = d1 + d2 + cross - r1 * s2 - s1 * r2
                out.append(tuple.__new__(Stratum, (((r1, c1, s1), (r2, c2, s2)), (d1, d2), total)))
    return out


# ---------------------------------------------------------------------------
# Dimension-estimate audits
# ---------------------------------------------------------------------------


class ChainAudit(NamedTuple):
    """Term-by-term record of the pairing-sum inequality chain."""

    pair_sum: int
    split_identity_ok: bool       # pair sum = sum (r-r_i)/r_i <v_i^2>/2 - cross terms
    bogomolov_ok: bool            # <v_i^2> + 2 r_i^2 >= 0 per part
    hodge_ok: bool                # each cross class has nonpositive square
    drop_rank_weights_ok: bool    # lowering (r-r_i) -> 1 only decreases
    collect_identity_ok: bool     # exact regrouping through <v^2>/2
    final_bound_ok: bool          # pair sum >= <v^2>/(2r) + r - r^2 + sum r_i^2

    @property
    def ok(self) -> bool:
        return (
            self.split_identity_ok
            and self.bogomolov_ok
            and self.hodge_ok
            and self.drop_rank_weights_ok
            and self.collect_identity_ok
            and self.final_bound_ok
        )


def chain_audit(v: MukaiVector, strata: list[Stratum]) -> list[ChainAudit]:
    """Verify every step of the pairing-sum estimate on each stratum, exactly.

    Each line of the chain is a sum of terms over 2 r_i, 2 r_i r_j and 2r.
    With P = prod r_i and N = 2 r P, every line times N is an integer, so
    each integer line here is the typed line times N and each comparison
    is the typed comparison; N > 0 because every rank is positive.  The
    squares, the pairwise pairings and the cross-class squares
    (r_i xi_j - r_j xi_i)^2 all come from the intersection numbers
    xi_i.xi_j on the model's Gram matrix, read from each part's
    (rank, c1 coefficients, s):

        cross . N   = r sum_{i<j} sq_ij P/(r_i r_j)
        split . N   = r sum_i (r - r_i) <v_i^2> P/r_i - cross . N
        dropped . N = r sum_i <v_i^2> P/r_i + N sum_i (r_i - (r - r_i) r_i) - cross . N
        collect . N = <v^2> P + sum_{i<j} sq_ij P/(r_i r_j) + N (r - r^2 + sum_i r_i^2) - cross . N
        final . N   = <v^2> P + N (r - r^2 + sum_i r_i^2)
    """
    model = v.model
    if not model.is_k3:
        raise ModelMismatchError("the chain uses the Mukai pairing of the K3 models")
    r = v.r
    # v's c1 and each distinct part c1 are lowered through the Gram matrix once
    # a call, unrolled on two classes as NSClass.dot is: a rank-1 lattice pads
    # each c1 with 0, and unpacking refuses a c1 of the wrong length
    gram = model.gram
    if len(gram) == 1:
        ((g00,),), g01, g11, pad = gram, 0, 0, (0,)
    else:
        ((g00, g01), (_, g11)), pad = gram, ()
    lowered = {}  # c1 -> (its two coefficients, lowered through the Gram matrix, c1^2)

    def lower(c1):
        try:
            a0, a1 = c1 + pad
        except ValueError:
            raise ValueError("a part's c1 needs one coefficient per class of the lattice") from None
        l0, l1 = g00 * a0 + g01 * a1, g01 * a0 + g11 * a1
        entry = lowered[c1] = (a0, a1, l0, l1, l0 * a0 + l1 * a1)
        return entry

    q_v = lower(v.c1.coeffs)[4] - 2 * r * v.s
    out = []
    for stratum in strata:
        ranks, c1s, slots = zip(*stratum.parts)
        if r < 1 or min(ranks) < 1:
            raise ValueError("the chain runs over vectors of positive rank")
        rows = [lowered.get(c1) or lower(c1) for c1 in c1s]
        k = len(ranks)
        rank_prod = prod(ranks)  # P
        n = 2 * r * rank_prod
        pair_sum = 0
        cross_over_r = 0  # cross . N / r
        weighted = split = 0  # sum_i <v_i^2> P/r_i, and each term times r - r_i
        rank_sum = rank_sq = 0
        hodge_ok = bogomolov_ok = True
        for i in range(k):
            ri, si = ranks[i], slots[i]
            _, _, l0, l1, sqi = rows[i]
            qi = sqi - 2 * ri * si  # <v_i^2>
            if qi + 2 * ri * ri < 0:
                bogomolov_ok = False
            wi = qi * (rank_prod // ri)
            weighted += wi
            split += (r - ri) * wi
            rank_sum += ri
            rank_sq += ri * ri
            for j in range(i + 1, k):
                rj, (b0, b1, _, _, sqj) = ranks[j], rows[j]
                dij = l0 * b0 + l1 * b1
                pair_sum += dij - ri * slots[j] - si * rj
                sq = rj * rj * sqi - 2 * ri * rj * dij + ri * ri * sqj
                if sq > 0:
                    hodge_ok = False
                cross_over_r += sq * (rank_prod // (ri * rj))
        cross = r * cross_over_r

        line_split = r * split - cross
        line_dropped = r * weighted + n * (rank_sum - r * rank_sum + rank_sq) - cross
        final = q_v * rank_prod + n * (r - r * r + rank_sq)
        line_collect = final + cross_over_r - cross

        out.append(tuple.__new__(ChainAudit, (
            pair_sum,
            line_split == pair_sum * n,  # split_identity_ok
            bogomolov_ok,
            hodge_ok,
            line_split >= line_dropped,  # drop_rank_weights_ok
            line_dropped == line_collect,  # collect_identity_ok
            pair_sum * n >= final,  # final_bound_ok
        )))
    return out


class CodimAudit(NamedTuple):
    strata: int
    unordered: int
    min_codim: int | None
    chain_ok: bool
    codim_bound_ok: bool
    oracle_match: bool
    bound: Fraction
    corollary_applicable: bool
    remark_applicable: bool


def codim_audit(v: MukaiVector, wall: Wall) -> CodimAudit:
    """Audit every HN stratum on a wall: its codimension, chain and oracle.

    The strata are those with 2..r parts, as ``strata_enumerate`` lists
    them.  The codimension bound is <v^2>/(2r) + r - r^2 + 1; the
    polarization independence criterion asks for it to be >= 2, relaxed to
    <v, v> >= 2(r-1)(r^2+1) when c1 is primitive.  ``chain_ok`` is
    ``chain_audit`` passing on each stratum, and ``oracle_match`` is the
    two-part strata agreeing with ``strata_box_oracle`` as a set.
    For <v, v> <= 0 and r >= 2 the bound is below 2 and the relaxed
    threshold is positive, so neither applicability flag holds.
    """
    r = v.r
    q_v = mukai_pair(v, v)
    strata = strata_enumerate(v, wall)
    two_part = {st for st in strata if len(st.parts) == 2}
    # the bound is b / 2r with b = <v^2> + 2r(r - r^2 + 1), compared on integers
    b = q_v + 2 * r * (r - r * r + 1)
    bound = Fraction(b, 2 * r)
    min_codim = (q_v + 1) - max([st.total_dim for st in strata]) if strata else None
    return tuple.__new__(CodimAudit, (
        len(strata),
        unordered_count(strata),
        min_codim,
        all(audit.ok for audit in chain_audit(v, strata)),  # chain_ok
        min_codim is None or 2 * r * min_codim >= b,  # codim_bound_ok: strata need r >= 2
        two_part == set(strata_box_oracle(v, wall)),  # oracle_match
        bound,
        b * r >= 4 * r * r,  # corollary_applicable: b / 2r >= 2 times (2r)^2 / 2
        gcd(*v.c1.coeffs) == 1 and q_v >= 2 * (r - 1) * (r * r + 1),  # remark_applicable
    ))


def audit_vector(v: MukaiVector, coeff_bound: int) -> tuple[bool, list[dict]]:
    """One entry per wall of v in the box: the wall and its ``codim_audit``.

    The vector passes when every wall holds ``chain_ok``, ``codim_bound_ok``
    and ``oracle_match``.
    """
    walls = []
    ok = True
    for wall in wall_enumerate(v, coeff_bound):
        audit = codim_audit(v, wall)
        walls.append({"wall_d": wall.d, "m_value": wall.m_value, **audit._asdict()})
        ok = ok and audit.chain_ok and audit.codim_bound_ok and audit.oracle_match
    return ok, walls


def judge_strata_audit(
    model: SurfaceModel, v: MukaiVector | None, coeff_bound: int, s4_lo: int, s4_hi: int
) -> tuple[bool, dict]:
    """``audit_vector`` on v, or without v on (2, sigma, s4) for s4_lo <= s4 <= s4_hi."""
    vectors = [v] if v is not None else [MukaiVector(2, model.sigma, s4) for s4 in range(s4_lo, s4_hi + 1)]
    if not vectors:
        # asks the model as a vector would: sigma, then the wall walk
        wall_enumerate(MukaiVector(2, model.sigma, 0), 0)
        raise NothingToExamineError("no vector to audit: s4_lo > s4_hi")
    results = []
    for u in vectors:
        u_ok, walls = audit_vector(u, coeff_bound)
        results.append({"v": u, "ok": u_ok, "walls": walls})
    return all(entry["ok"] for entry in results), {"coeff_bound": coeff_bound, "vectors": results}


def judge_suitability(
    model: SurfaceModel, v: MukaiVector | None, m: Fraction | None, coeff_bound: int
) -> tuple[bool, SuitabilityReport]:
    if v is None or m is None:
        raise MissingParamsError("need params v and m")
    report = is_suitable(m, v, coeff_bound)
    return report.suitable, report


__all__ = [
    "Wall",
    "Stratum",
    "SuitabilityReport",
    "ChainAudit",
    "CodimAudit",
    "wall_enumerate",
    "is_suitable",
    "strata_enumerate",
    "unordered_count",
    "chain_audit",
    "codim_audit",
]
