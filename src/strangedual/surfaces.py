"""Exact intersection theory and Mukai-vector algebra on K3-type surfaces.

Three surface models are supported:

* ``generic_k3(2n)``        Pic = Z.H with H^2 = 2n > 0, K = 0, chi(O) = 2
* ``elliptic_k3()``         NS = Z.sigma + Z.f with sigma^2 = -2, f^2 = 0,
                            sigma.f = 1, K = 0, chi(O) = 2
* ``elliptic_general(chi)`` sigma^2 = -chi, f^2 = 0, sigma.f = 1,
                            K = (chi - 2).f, chi(O) = chi >= 1

Each model is built once per parameter and carries one description of its
lattice, fixed when it is built:

* ``gram``      the Gram matrix of NS in the basis H, or sigma and f;
* ``chi_o``     the holomorphic Euler characteristic chi(O);
* ``canonical`` the canonical class K, as an NS class of the model;
* ``zero``      the zero class, and the basis classes H, or sigma and f,
  that ``hyperplane``, ``sigma`` and ``fiber`` return;
* ``s_shift``   the slot shift e with chi(v) = s + e.rank (see below);
* ``labels``    the basis names used to print classes (``H``, or ``s``/``f``)
  and ``basis``, the basis tag of reports (``H`` or ``sigma_f``).

A Mukai vector is stored as (rank, c1, s).  On the two K3 models the integer
slot ``s`` is the degree-4 Mukai component v4 = ch2 + rank, so e = 1; on the
general elliptic model square roots of the Todd class are not integral, so
``s`` stores the Euler characteristic chi directly and e = 0.  Every formula
below is the Riemann-Roch formula of the general model, ch2 = chi -
rank*chi(O) + c1.K/2 with chi = s + e.rank, and holds on the K3 models as
written because K = 0 there.

All arithmetic is exact: plain Python integers throughout.  No floats.
Every value is immutable, every operation a pure function.

The class algebra is unrolled by NS rank (1 or 2): ``NSClass`` addition,
subtraction, negation, integer scaling and ``dot`` write out each
coefficient, and ``twist`` and ``mukai_tensor`` build their one result class
from coefficients, with no generator and no intermediate class.

Fields are read once, by tuple unpacking (``model, x = d``; ``r, (model,
x), s = v``), not by name: a NamedTuple field is a descriptor that Python
3.11 does not specialise.  Each operation on two lattice elements runs its
operand guard inline, first the operand's type (``TypeError``), then its
model (``ModelMismatchError``), and pairs coefficient tuples through one
unrolled Gram product.

Operations build their result records with ``tuple.__new__(NSClass,
(model, coeffs))`` and ``tuple.__new__(MukaiVector, (r, c1, s))``, not
through the NamedTuple's generated ``__new__``: that is one Python call
more per record, and it checks only the argument count, which each
operation fixes by construction.  ``model.cls`` checks the count and
converts to ``int`` before it builds; records from outside input go
through it or through the class constructors.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import gcd
from typing import NamedTuple

GENERIC_K3 = "generic_k3"
ELLIPTIC_K3 = "elliptic_k3"
ELLIPTIC_GENERAL = "elliptic_general"


class ModelMismatchError(ValueError):
    """Lattice elements from different surface models were combined."""


class MissingParamsError(Exception):
    """A check was not given the params it needs; the message names them."""


class NothingToExamineError(Exception):
    """A check's bounds left it nothing to examine; ``data`` holds its counts, at zero."""

    def __init__(self, reason: str, **data):
        super().__init__(reason)
        self.data = data


def require_at_least(key: str, value: int, least: int, **counts) -> None:
    """Raise NothingToExamineError when the bound ``key`` is below ``least``;
    its data names the bound and its value beside ``counts``."""
    if value < least:
        data = {key: value, **counts}
        raise NothingToExamineError(f"nothing to examine: need {key} >= {least}", **data)


class SurfaceModel:
    """An intersection lattice together with chi(O) and the canonical class.

    Only ``kind``, ``degree`` (H^2, generic K3 only) and ``chi_o`` are
    given; the lattice description is derived from them once, and equality
    compares only them.  A model is immutable.  It is not a tuple: its
    ``canonical`` class holds the model, so comparing or hashing it as a
    tuple would recurse.  The named classes (``zero`` and the basis classes
    H, or sigma and f) are built once with it, as ``canonical`` is.
    """

    __slots__ = (
        "kind", "degree", "chi_o", "gram", "canonical", "s_shift", "labels", "basis", "zero",
        "_basis_classes",
    )

    def __init__(self, kind: str, degree: int = 0, chi_o: int = 2) -> None:
        if kind == GENERIC_K3:
            if degree <= 0 or degree % 2 != 0:
                raise ValueError("generic K3 degree must be a positive even integer")
            if chi_o != 2:
                raise ValueError("a K3 surface has chi(O) = 2")
            gram, k, e, labels, basis = ((degree,),), (0,), 1, ("H",), "H"
        elif kind == ELLIPTIC_K3:
            if degree != 0:
                raise ValueError("elliptic K3 model takes no degree")
            if chi_o != 2:
                raise ValueError("a K3 surface has chi(O) = 2")
            gram, k, e, labels, basis = ((-2, 1), (1, 0)), (0, 0), 1, ("s", "f"), "sigma_f"
        elif kind == ELLIPTIC_GENERAL:
            if degree != 0:
                raise ValueError("general elliptic model takes no degree")
            if chi_o < 1:
                raise ValueError("chi(O) must be >= 1")
            gram = ((-chi_o, 1), (1, 0))
            k, e, labels, basis = (0, chi_o - 2), 0, ("s", "f"), "sigma_f"
        else:
            raise ValueError(f"unknown surface kind {kind!r}")
        n = len(labels)
        zero = tuple.__new__(NSClass, (self, (0,) * n))
        units = tuple(  # the basis classes, in label order
            tuple.__new__(NSClass, (self, tuple(int(i == j) for j in range(n)))) for i in range(n)
        )
        values = (kind, degree, chi_o, gram, NSClass(self, k), e, labels, basis, zero, units)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a surface model")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a surface model")

    def __eq__(self, other):
        if not isinstance(other, SurfaceModel):
            return NotImplemented
        return (self.kind, self.degree, self.chi_o) == (other.kind, other.degree, other.chi_o)

    def __hash__(self) -> int:
        return hash((self.kind, self.degree, self.chi_o))

    def __repr__(self) -> str:
        return f"SurfaceModel(kind={self.kind!r}, degree={self.degree!r}, chi_o={self.chi_o!r})"

    # -- basic shape ------------------------------------------------------

    @property
    def ns_rank(self) -> int:
        return len(self.labels)

    @property
    def is_k3(self) -> bool:
        return self.kind in (GENERIC_K3, ELLIPTIC_K3)

    # -- named classes ----------------------------------------------------

    def cls(self, *coeffs: int) -> "NSClass":
        if len(coeffs) != len(self.labels):
            raise ValueError(
                f"{self.kind} expects {self.ns_rank} coefficient(s), got {len(coeffs)}"
            )
        return tuple.__new__(NSClass, (self, tuple(map(int, coeffs))))

    @property
    def hyperplane(self) -> "NSClass":
        if len(self.labels) != 1:
            raise ModelMismatchError("H is the generator of the rank-1 model only")
        return self._basis_classes[0]

    @property
    def sigma(self) -> "NSClass":
        if len(self.labels) != 2:
            raise ModelMismatchError("sigma lives on the elliptic models")
        return self._basis_classes[0]

    @property
    def fiber(self) -> "NSClass":
        if len(self.labels) != 2:
            raise ModelMismatchError("f lives on the elliptic models")
        return self._basis_classes[1]


@cache
def generic_k3(degree: int) -> SurfaceModel:
    return SurfaceModel(GENERIC_K3, degree=degree)


@cache
def elliptic_k3() -> SurfaceModel:
    return SurfaceModel(ELLIPTIC_K3)


@cache
def elliptic_general(chi_o: int) -> SurfaceModel:
    return SurfaceModel(ELLIPTIC_GENERAL, chi_o=chi_o)


_NS_MISMATCH = "NS classes live on different surface models"
_MUKAI_MISMATCH = "Mukai vectors live on different surface models"


def _form(g, x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """x.y for the coefficient tuples x, y under the Gram matrix g, unrolled by NS rank."""
    if len(x) == 1:
        return x[0] * y[0] * g[0][0]
    # the Gram matrix is symmetric: g01 = g10
    return g[0][0] * x[0] * y[0] + g[0][1] * (x[0] * y[1] + x[1] * y[0]) + g[1][1] * x[1] * y[1]


class NSClass(NamedTuple):
    """An integer divisor class in the Neron-Severi lattice of a model."""

    model: SurfaceModel
    coeffs: tuple[int, ...]

    def __add__(self, other: "NSClass") -> "NSClass":
        if not isinstance(other, NSClass):
            raise TypeError(f"expected NSClass, got {type(other).__name__}")
        model, x = self
        other_model, y = other
        # models are built once per parameter; == covers an equal copy
        if model is not other_model and model != other_model:
            raise ModelMismatchError(_NS_MISMATCH)
        if len(x) == 1:
            return tuple.__new__(NSClass, (model, (x[0] + y[0],)))
        return tuple.__new__(NSClass, (model, (x[0] + y[0], x[1] + y[1])))

    def __sub__(self, other: "NSClass") -> "NSClass":
        if not isinstance(other, NSClass):
            raise TypeError(f"expected NSClass, got {type(other).__name__}")
        model, x = self
        other_model, y = other
        if model is not other_model and model != other_model:
            raise ModelMismatchError(_NS_MISMATCH)
        if len(x) == 1:
            return tuple.__new__(NSClass, (model, (x[0] - y[0],)))
        return tuple.__new__(NSClass, (model, (x[0] - y[0], x[1] - y[1])))

    def __neg__(self) -> "NSClass":
        model, x = self
        if len(x) == 1:
            return tuple.__new__(NSClass, (model, (-x[0],)))
        return tuple.__new__(NSClass, (model, (-x[0], -x[1])))

    def __rmul__(self, k: int) -> "NSClass":
        if not isinstance(k, int):
            raise TypeError("NS classes only scale by integers")
        model, x = self
        if len(x) == 1:
            return tuple.__new__(NSClass, (model, (k * x[0],)))
        return tuple.__new__(NSClass, (model, (k * x[0], k * x[1])))

    __mul__ = __rmul__

    def dot(self, other: "NSClass") -> int:
        """Intersection pairing with ``other`` (symmetric, bilinear, exact)."""
        if not isinstance(other, NSClass):
            raise TypeError(f"expected NSClass, got {type(other).__name__}")
        model, x = self
        other_model, y = other
        if model is not other_model and model != other_model:
            raise ModelMismatchError(_NS_MISMATCH)
        return _form(model.gram, x, y)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        return "+".join(f"{c}{label}" for c, label in zip(self.coeffs, self.model.labels))


def ns_pair(d1: NSClass, d2: NSClass) -> int:
    """Intersection number d1.d2 on their common model."""
    return d1.dot(d2)


def chi_rr(d: NSClass) -> int:
    """Euler characteristic chi(O(d)) = d.(d - K)/2 + chi(O) by Riemann-Roch."""
    model, x = d
    g, (_, k) = model.gram, model.canonical
    num = _form(g, x, x) - _form(g, x, k)
    assert num % 2 == 0  # D.(D-K) is even on any surface
    return num // 2 + model.chi_o


def h0_coeffs(m: int, n: int, chi_o: int) -> int:
    """Global-section count of O(m.sigma + n.f) on an elliptic surface with chi(O) = chi_o.

    pi_*O(m.sigma) = O + L^-2 + ... + L^-m with deg L = chi_o (Miranda, *The
    Basic Theory of Elliptic Surfaces*), so h0 = (n+1) + sum_{i=2..j} (n+1 -
    i.chi_o) with j = min(m, n // chi_o), summed here in closed form.  It is
    0 for m < 0 or n < 0, where the class meets the nef class f or
    sigma + chi_o.f negatively.
    """
    if m < 0 or n < 0:
        return 0
    j = min(m, n // chi_o)
    if j < 2:
        return n + 1
    return j * (n + 1) - chi_o * (j - 1) * (j + 2) // 2


def h0_surface(d: NSClass) -> int:
    """``h0_coeffs`` of the class d = m.sigma + n.f of an elliptic model."""
    if d.model.ns_rank != 2:
        raise ModelMismatchError("section counts are defined on the elliptic models")
    return h0_coeffs(*d.coeffs, d.model.chi_o)


# ---------------------------------------------------------------------------
# Mukai vectors
# ---------------------------------------------------------------------------


class MukaiVector(NamedTuple):
    """A lattice vector (rank, c1, s).

    ``s`` is the degree-4 Mukai component on K3 models and the Euler
    characteristic on the general elliptic model: chi = s + e.rank with the
    model's slot shift e (see module docstring).
    """

    r: int
    c1: NSClass
    s: int

    @property
    def model(self) -> SurfaceModel:
        return self.c1.model

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        if not isinstance(other, MukaiVector):
            raise TypeError(f"expected MukaiVector, got {type(other).__name__}")
        r1, (model, x), s1 = self
        r2, (other_model, y), s2 = other
        if model is not other_model and model != other_model:
            raise ModelMismatchError(_MUKAI_MISMATCH)
        if len(x) == 1:
            c1 = tuple.__new__(NSClass, (model, (x[0] + y[0],)))
        else:
            c1 = tuple.__new__(NSClass, (model, (x[0] + y[0], x[1] + y[1])))
        return tuple.__new__(MukaiVector, (r1 + r2, c1, s1 + s2))

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        if not isinstance(other, MukaiVector):
            raise TypeError(f"expected MukaiVector, got {type(other).__name__}")
        r1, (model, x), s1 = self
        r2, (other_model, y), s2 = other
        if model is not other_model and model != other_model:
            raise ModelMismatchError(_MUKAI_MISMATCH)
        if len(x) == 1:
            c1 = tuple.__new__(NSClass, (model, (x[0] - y[0],)))
        else:
            c1 = tuple.__new__(NSClass, (model, (x[0] - y[0], x[1] - y[1])))
        return tuple.__new__(MukaiVector, (r1 - r2, c1, s1 - s2))

    def __neg__(self) -> "MukaiVector":
        r, (model, x), s = self
        if len(x) == 1:
            c1 = tuple.__new__(NSClass, (model, (-x[0],)))
        else:
            c1 = tuple.__new__(NSClass, (model, (-x[0], -x[1])))
        return tuple.__new__(MukaiVector, (-r, c1, -s))

    def __rmul__(self, k: int) -> "MukaiVector":
        if not isinstance(k, int):
            raise TypeError("Mukai vectors only scale by integers")
        r, (model, x), s = self
        if len(x) == 1:
            c1 = tuple.__new__(NSClass, (model, (k * x[0],)))
        else:
            c1 = tuple.__new__(NSClass, (model, (k * x[0], k * x[1])))
        return tuple.__new__(MukaiVector, (k * r, c1, k * s))

    __mul__ = __rmul__

    def content(self) -> int:
        """gcd of all integer coordinates (0 for the zero vector)."""
        g = gcd(abs(self.r), abs(self.s))
        for c in self.c1.coeffs:
            g = gcd(g, abs(c))
        return g

    def __str__(self) -> str:
        return f"({self.r}; {self.c1}; {self.s})"


def chi_vec(v: MukaiVector) -> int:
    """Euler characteristic chi(v) = s + e.rank (= r + s on K3 models)."""
    r, (model, _), s = v
    return s + model.s_shift * r


def mukai_dual(v: MukaiVector) -> MukaiVector:
    """The dual class: ch_i goes to (-1)^i ch_i, i.e. c1 is negated.

    Riemann-Roch adds c1.K to the Euler characteristic, hence to the s-slot;
    on K3 models K = 0 and the s-slot is untouched.
    """
    r, (model, x), s = v
    _, k = model.canonical
    coeffs = (-x[0],) if len(x) == 1 else (-x[0], -x[1])
    c1 = tuple.__new__(NSClass, (model, coeffs))
    return tuple.__new__(MukaiVector, (r, c1, s + _form(model.gram, x, k)))


def mukai_pair(v: MukaiVector, w: MukaiVector) -> int:
    """Mukai pairing <v, w> = c1(v).c1(w) - v0*w4 - v4*w0 (K3 models only)."""
    if not isinstance(w, MukaiVector):
        raise TypeError(f"expected MukaiVector, got {type(w).__name__}")
    r1, (model, x), s1 = v
    r2, (other_model, y), s2 = w
    if model is not other_model and model != other_model:
        raise ModelMismatchError(_MUKAI_MISMATCH)
    if not model.is_k3:
        raise ModelMismatchError(
            "the Mukai pairing needs integral degree-4 components; "
            "the general elliptic model stores chi instead"
        )
    return _form(model.gram, x, y) - r1 * s2 - s1 * r2


def mukai_tensor(v: MukaiVector, w: MukaiVector) -> MukaiVector:
    """The K-theory product, computed through Chern characters.

    ch0 = r1*r2, ch1 = r1*c1(w) + r2*c1(v),
    ch2 = r1*ch2(w) + r2*ch2(v) + c1(v).c1(w), then converted back to the
    model's stored slots.  The chi of the product collapses to the integral
    formula r1*chi2 + r2*chi1 + c1.c2 - r1*r2*chi(O), valid on all models.
    """
    if not isinstance(w, MukaiVector):
        raise TypeError(f"expected MukaiVector, got {type(w).__name__}")
    r1, (model, x), s1 = v
    r2, (other_model, y), s2 = w
    if model is not other_model and model != other_model:
        raise ModelMismatchError(_MUKAI_MISMATCH)
    e = model.s_shift
    rank = r1 * r2
    if len(x) == 1:
        coeffs = (r1 * y[0] + r2 * x[0],)
    else:
        coeffs = (r1 * y[0] + r2 * x[0], r1 * y[1] + r2 * x[1])
    # chi(w) = s2 + e.r2 and chi(v) = s1 + e.r1
    chi = r1 * (s2 + e * r2) + r2 * (s1 + e * r1) + _form(model.gram, x, y) - rank * model.chi_o
    c1 = tuple.__new__(NSClass, (model, coeffs))
    return tuple.__new__(MukaiVector, (rank, c1, chi - e * rank))


def structure_vector(model: SurfaceModel) -> MukaiVector:
    """v(O_X): the unit of the tensor product."""
    return tuple.__new__(MukaiVector, (1, model.zero, model.chi_o - model.s_shift))


def ideal_sheaf_vector(d: NSClass, n: int) -> MukaiVector:
    """v(I_Z(d)) for a length-n subscheme Z."""
    if n < 0:
        raise ValueError("subscheme length must be >= 0")
    return tuple.__new__(MukaiVector, (1, d, chi_rr(d) - n - d.model.s_shift))


def twist(v: MukaiVector, d: NSClass) -> MukaiVector:
    """The vector of v tensored with O(d): multiplication by e^d.

    chi, hence the s-slot, shifts by c1.d + r.d.(d - K)/2.
    """
    if not isinstance(d, NSClass):
        raise TypeError(f"expected NSClass, got {type(d).__name__}")
    r, (model, x), s = v
    d_model, z = d
    if model is not d_model and model != d_model:
        raise ModelMismatchError("twisting class lives on a different model")
    g, (_, k) = model.gram, model.canonical
    num = r * (_form(g, z, z) - _form(g, z, k))
    assert num % 2 == 0  # D.(D-K) is even
    if len(x) == 1:
        coeffs = (x[0] + r * z[0],)
    else:
        coeffs = (x[0] + r * z[0], x[1] + r * z[1])
    c1 = tuple.__new__(NSClass, (model, coeffs))
    return tuple.__new__(MukaiVector, (r, c1, s + _form(g, x, z) + num // 2))


def euler_form(v: MukaiVector, w: MukaiVector) -> int:
    """(v, w) = chi(v . w), computed by Riemann-Roch as ground truth.

    On K3 models this equals -<v, w*>; orthogonality (v, w) = 0 is therefore
    the same condition as <v, w*> = 0, which is the form actually used.
    """
    return chi_vec(mukai_tensor(v, w))


def euler_pair_hom(v: MukaiVector, w: MukaiVector) -> int:
    """chi(v, w) = sum (-1)^i ext^i(v, w), the asymmetric Hom-pairing.

    Equals -<v, w> on K3 models; on the general model it carries the
    antisymmetric canonical-class correction.
    """
    if not isinstance(w, MukaiVector):
        raise TypeError(f"expected MukaiVector, got {type(w).__name__}")
    r1, (model, x), s1 = v
    r2, (other_model, y), s2 = w
    if model is not other_model and model != other_model:
        raise ModelMismatchError(_MUKAI_MISMATCH)
    e, chi_o, g, (_, k) = model.s_shift, model.chi_o, model.gram, model.canonical
    # chi(w) = s2 + e.r2 and chi(v) = s1 + e.r1
    return (
        r1 * (s2 + e * r2)
        + r2 * (s1 + e * r1)
        - r1 * r2 * chi_o
        - _form(g, x, y)
        + r2 * _form(g, x, k)
    )


def moduli_dim(v: MukaiVector) -> int:
    """Expected dimension of the moduli space of stable sheaves of class v.

    Computed as 2*r*c2 - (r-1)*c1^2 - (r^2-1)*chi(O) with c2 = c1^2/2 - ch2,
    which on K3 models collapses to <v, v> + 2.  2*ch2 is an integer, so
    the sum is taken over the integers.
    """
    r, (model, x), s = v
    chi_o, g, (_, k) = model.chi_o, model.gram, model.canonical
    # chi(v) = s + e.r
    twice_ch2 = 2 * (s + model.s_shift * r - r * chi_o) + _form(g, x, k)
    return _form(g, x, x) - r * twice_ch2 - (r * r - 1) * chi_o


def normalized_vector(r: int, a: int, model: SurfaceModel) -> MukaiVector:
    """The rank-r vector of the normalized 2a-dimensional moduli space.

    c1 = sigma + (a - r(r-1)chi/2).f with chi(v) = 1; the rank-1 member is
    the class of I_Z(sigma + a.f).
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    if a < 0:
        raise ValueError("half-dimension must be >= 0")
    if len(model.labels) != 2:
        raise ModelMismatchError("normalized vectors live on the elliptic models")
    half = r * (r - 1) * model.chi_o
    assert half % 2 == 0
    c1 = tuple.__new__(NSClass, (model, (1, a - half // 2)))
    return tuple.__new__(MukaiVector, (r, c1, 1 - model.s_shift * r))


def _coordinate_vector(model: SurfaceModel, q: tuple[int, ...]) -> MukaiVector:
    """The vector with coordinates q = (rank, c1 coefficients..., s)."""
    return MukaiVector(q[0], model.cls(*q[1:-1]), q[-1])


def sign_law_sweep(model: SurfaceModel, bound: int) -> tuple[int, list, dict]:
    """Compare chi(v . w) with -<v, w*> on every pair of a coordinate grid.

    The grid holds the vectors with coordinates (rank, c1 coefficients, s) in
    [-bound, bound] on a K3 model.  Both sides are integer bilinear forms in
    (v, w), so they agree on every grid pair exactly when their Gram matrices
    agree on the model's coordinate basis: 16 entries on the elliptic K3, 9 on
    a generic K3.  Each entry is evaluated through the typed route, the
    tensor product for the left side and the pairing with the dual for the
    right.  Only when some entry differs is the grid enumerated, to list the
    mismatching pairs with both values.

    Returns (unordered grid pairs covered, n(n+1)/2 for n grid vectors;
    mismatches as (v, w, lhs, rhs); an example record of the sign
    discrepancy between the two raw conventions at (v(O), v(O))).
    """
    if not model.is_k3:
        raise ModelMismatchError("the sign law is a statement about the K3 models")
    dim = model.ns_rank + 2
    basis = [_coordinate_vector(model, tuple(int(i == j) for j in range(dim))) for i in range(dim)]
    lhs = [[euler_form(e, f) for f in basis] for e in basis]
    rhs = [[-mukai_pair(e, mukai_dual(f)) for f in basis] for e in basis]
    n = len(range(-bound, bound + 1)) ** dim
    mismatches = []
    if lhs != rhs:
        mismatches = _sign_law_mismatches(model, bound, lhs, rhs)
    o = structure_vector(model)
    discrepancy = {
        "euler_form(vO, vO)": euler_form(o, o),
        "<vO, vO_dual>": mukai_pair(o, mukai_dual(o)),
    }
    return n * (n + 1) // 2, mismatches, discrepancy


def _sign_law_mismatches(model: SurfaceModel, bound: int, lhs: list, rhs: list) -> list:
    """The grid pairs v <= w (in grid order) on which the two Gram forms differ."""
    coords = list(product(range(-bound, bound + 1), repeat=len(lhs)))

    def apply(gram, w):
        return [sum(g * c for g, c in zip(row, w)) for row in gram]

    lhs_w = [apply(lhs, w) for w in coords]
    rhs_w = [apply(rhs, w) for w in coords]
    out = []
    for i, v in enumerate(coords):
        for j in range(i, len(coords)):
            left = sum(c * g for c, g in zip(v, lhs_w[j]))
            right = sum(c * g for c, g in zip(v, rhs_w[j]))
            if left != right:
                pair = (_coordinate_vector(model, v), _coordinate_vector(model, coords[j]))
                out.append((*pair, left, right))
    return out


def judge_sign_law(model: SurfaceModel, coord_bound: int, degrees: tuple[int, ...]) -> tuple[bool, dict]:
    """The sign law on the elliptic K3 and on the generic K3 of each degree.

    Builds its surfaces from its bounds and reads no instance surface.  The
    verdict holds when ``sign_law_sweep`` finds no mismatch on any of them.
    """
    require_at_least("coord_bound", coord_bound, 0, pairs_checked=0)
    total, mismatches, discrepancy = sign_law_sweep(elliptic_k3(), coord_bound)
    count = len(mismatches)
    for degree in degrees:
        checked, bad, _ = sign_law_sweep(generic_k3(degree), coord_bound)
        total += checked
        count += len(bad)
    data = {"pairs_checked": total, "mismatches": count, "documented_discrepancy": discrepancy}
    return count == 0, data
