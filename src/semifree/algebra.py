"""Exact arithmetic for equivariant classes at fixed components.

Restricting an equivariant cohomology class to a connected fixed
component of a semi-free Hamiltonian circle action gives a Laurent
polynomial in the degree-2 equivariant parameter (written ``lam``)
with coefficients in the ordinary cohomology of the component.  For an
isolated fixed point the coefficients are rationals; for a fixed
surface they live in the two-step ring spanned by 1 and the area
generator ``u`` (with ``u * u = 0``).

A second, much smaller algebra lives on the reduced spaces of the
action: the projective plane, or a sphere bundle (trivial or
nontrivial) over a surface.  Degree-2 classes there are integer or
rational combinations of the fiber class ``x`` and the section class
``y`` (a single multiple of ``u`` on the projective plane), and the
only operation needed is the intersection pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ._solve import _scalar
from .rationals import Rational, canon, qdiv

# ---------------------------------------------------------------------------
# carriers


class CarrierMismatchError(ValueError):
    """Raised when combining classes living on different carriers."""


class NotInvertibleError(ValueError):
    """Raised when a class does not have the shape of an Euler class."""


POINT = "point"
SURFACE = "surface"
_CARRIERS = (POINT, SURFACE)


def _coerce_pair(value: object) -> tuple[Rational, Rational]:
    if isinstance(value, tuple) and len(value) == 2:
        return (_scalar(value[0]), _scalar(value[1]))
    return (_scalar(value), 0)


# ---------------------------------------------------------------------------
# equivariant classes


@dataclass(frozen=True)
class EquivariantClass:
    """Laurent polynomial ``sum_k (c_k + d_k u) lam^k`` on one carrier.

    ``terms`` maps the exponent ``k`` to the pair ``(c_k, d_k)``; zero
    pairs are dropped on construction.  Point carriers have no ``u``
    part, so ``d_k = 0`` is enforced for them.
    """

    carrier: str
    terms: tuple[tuple[int, tuple[Rational, Rational]], ...]

    def __post_init__(self) -> None:
        if self.carrier not in _CARRIERS:
            raise ValueError(f"unknown carrier {self.carrier!r}")
        if self.carrier == POINT and any(d for _, (_, d) in self.terms):
            raise CarrierMismatchError("point carrier cannot hold a u part")

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(carrier: str, terms: Mapping[int, object]) -> EquivariantClass:
        cleaned = {}
        for k, pair in terms.items():
            c, d = _coerce_pair(pair)
            if c or d:
                cleaned[int(k)] = (c, d)
        return EquivariantClass(carrier, tuple(sorted(cleaned.items())))

    @staticmethod
    def zero(carrier: str) -> EquivariantClass:
        return EquivariantClass.make(carrier, {})

    @staticmethod
    def unit(carrier: str) -> EquivariantClass:
        return EquivariantClass.make(carrier, {0: (1, 0)})

    # -- inspection --------------------------------------------------------

    def coefficient(self, k: int) -> tuple[Rational, Rational]:
        """Return ``(c_k, d_k)`` at exponent ``k`` (zeros when absent)."""
        for exp, pair in self.terms:
            if exp == k:
                return pair
        return (0, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        """Cohomological degree if homogeneous, else ``None``.

        A scalar at exponent ``k`` sits in degree ``2k``; a ``u`` term at
        exponent ``k`` sits in degree ``2k + 2``.  The zero class reports
        ``None`` as well (it fits any degree).
        """
        degrees = set()
        for k, (c, d) in self.terms:
            if c:
                degrees.add(2 * k)
            if d:
                degrees.add(2 * k + 2)
        if len(degrees) == 1:
            return degrees.pop()
        return None

    # -- ring structure ----------------------------------------------------

    def _check(self, other: EquivariantClass) -> None:
        if self.carrier != other.carrier:
            raise CarrierMismatchError(
                f"cannot combine {self.carrier} class with {other.carrier} class"
            )

    def __add__(self, other: EquivariantClass) -> EquivariantClass:
        self._check(other)
        acc: dict[int, tuple[Rational, Rational]] = dict(self.terms)
        for k, (c, d) in other.terms:
            c0, d0 = acc.get(k, (0, 0))
            acc[k] = (c0 + c, d0 + d)
        return EquivariantClass.make(self.carrier, acc)

    def __neg__(self) -> EquivariantClass:
        return EquivariantClass.make(
            self.carrier, {k: (-c, -d) for k, (c, d) in self.terms}
        )

    def __sub__(self, other: EquivariantClass) -> EquivariantClass:
        return self + (-other)

    def __mul__(self, other: EquivariantClass) -> EquivariantClass:
        self._check(other)
        return EquivariantClass(self.carrier, mul_terms(self.terms, other.terms))

    def shifted(self, k: int) -> EquivariantClass:
        """Multiply by ``lam**k``."""
        return EquivariantClass(
            self.carrier, tuple((exp + k, pair) for exp, pair in self.terms)
        )


def mul_terms(
    a: Iterable[tuple[int, tuple]], b: Iterable[tuple[int, tuple]]
) -> tuple[tuple[int, tuple], ...]:
    """Multiply two term lists; works for any commutative coefficient type.

    The ``u`` parts multiply to zero, so the product of ``(c1 + d1 u)``
    and ``(c2 + d2 u)`` is ``c1 c2 + (c1 d2 + d1 c2) u``. A product with
    a zero ``u`` factor is not formed; a zero ``u`` part stays the zero
    of its operands' type. Scalar coefficients come out canonical.
    """
    acc: dict[int, list] = {}
    for i, (c1, d1) in a:
        for j, (c2, d2) in b:
            k = i + j
            c = c1 * c2
            if d2:
                d = c1 * d2 + d1 * c2 if d1 else c1 * d2
            else:
                d = d1 * c2 if d1 else d2
            if k in acc:
                acc[k][0] = acc[k][0] + c
                if d:
                    acc[k][1] = acc[k][1] + d
            else:
                acc[k] = [c, d]
    out = []
    for k in sorted(acc):
        c, d = acc[k]
        if c or d:
            out.append((k, (canon(c), canon(d))))
    return tuple(out)


def mul(a: EquivariantClass, b: EquivariantClass) -> EquivariantClass:
    """Product of two classes on the same carrier (``u * u = 0``)."""
    return a * b


def invert_euler(e: EquivariantClass) -> EquivariantClass:
    """Invert an equivariant Euler class.

    The admissible shape is ``c lam^k + d lam^(k-1) u`` with ``c != 0``
    (points have ``d = 0``).  The inverse is
    ``(1/c) lam^-k - (d/c^2) lam^-k-1 u``, which is exact because the
    ``u`` part is nilpotent.
    """
    if not e.terms:
        raise NotInvertibleError("zero class has no inverse")
    scalar_exps = [k for k, (c, _) in e.terms if c]
    u_exps = [k for k, (_, d) in e.terms if d]
    if len(scalar_exps) != 1:
        raise NotInvertibleError(f"not an Euler class shape: {e.terms!r}")
    k = scalar_exps[0]
    if any(j != k - 1 for j in u_exps):
        raise NotInvertibleError(f"not an Euler class shape: {e.terms!r}")
    c, _ = e.coefficient(k)
    _, d = e.coefficient(k - 1)
    return EquivariantClass.make(
        e.carrier, {-k: (qdiv(1, c), 0), -k - 1: (0, -qdiv(d, c * c))}
    )


def integrate_component(x: EquivariantClass) -> dict[int, Rational]:
    """Push a restricted class forward to a Laurent scalar.

    Integration over a point picks the scalar coefficients; integration
    over a surface picks the ``u`` coefficients (the area generator has
    total integral 1).  The result maps each exponent to its nonzero
    coefficient; like ``mul_terms`` this works for any coefficient type.
    """
    out: dict[int, Rational] = {}
    for k, (c, d) in x.terms:
        value = c if x.carrier == POINT else d
        if value:
            out[k] = value
    return out


# ---------------------------------------------------------------------------
# reduced spaces


PROJECTIVE_PLANE = "projective_plane"
TRIVIAL_BUNDLE = "trivial_bundle"
NONTRIVIAL_BUNDLE = "nontrivial_bundle"


@dataclass(frozen=True)
class ReducedSpaceType:
    """Diffeomorphism type of a regular reduced space.

    ``projective_plane`` has rank-1 degree-2 cohomology spanned by the
    hyperplane class ``u``.  The two sphere-bundle forms over a genus-g
    surface are spanned by the fiber class ``x`` and a section class
    ``y``; they differ in the parity of the self-pairing lattice
    (``y * y`` is 0 on the trivial form and -1 on the nontrivial one).
    """

    form: str
    genus: int = 0

    def __post_init__(self) -> None:
        if self.form not in (PROJECTIVE_PLANE, TRIVIAL_BUNDLE, NONTRIVIAL_BUNDLE):
            raise ValueError(f"unknown reduced space form {self.form!r}")
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if self.form == PROJECTIVE_PLANE and self.genus:
            raise ValueError("the projective plane carries no genus parameter")

    @property
    def rank(self) -> int:
        return 1 if self.form == PROJECTIVE_PLANE else 2

    def describe(self) -> str:
        if self.form == PROJECTIVE_PLANE:
            return "projective plane"
        kind = "trivial" if self.form == TRIVIAL_BUNDLE else "nontrivial"
        return f"{kind} sphere bundle over genus-{self.genus} surface"


def projective_plane() -> ReducedSpaceType:
    return ReducedSpaceType(PROJECTIVE_PLANE)


def trivial_bundle(genus: int) -> ReducedSpaceType:
    return ReducedSpaceType(TRIVIAL_BUNDLE, genus)


def nontrivial_bundle(genus: int) -> ReducedSpaceType:
    return ReducedSpaceType(NONTRIVIAL_BUNDLE, genus)


def bundle_over(genus: int, chern_parity: int) -> ReducedSpaceType:
    """Bundle form selected by the parity of a vertical Chern number."""
    if chern_parity % 2 == 0:
        return trivial_bundle(genus)
    return nontrivial_bundle(genus)


@dataclass(frozen=True)
class ReducedClass:
    """Degree-2 class on a reduced space.

    ``coeffs`` is ``(p,)`` meaning ``p * u`` on the projective plane and
    ``(p, q)`` meaning ``p * x + q * y`` on either bundle form.
    """

    space: ReducedSpaceType
    coeffs: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.space.rank:
            raise ValueError(
                f"{self.space.describe()} needs {self.space.rank} coefficients"
            )

    @staticmethod
    def make(space: ReducedSpaceType, *coeffs: Rational) -> ReducedClass:
        return ReducedClass(space, tuple(_scalar(c) for c in coeffs))

    def _check(self, other: ReducedClass) -> None:
        if self.space != other.space:
            raise CarrierMismatchError("classes live on different reduced spaces")

    def __add__(self, other: ReducedClass) -> ReducedClass:
        self._check(other)
        return ReducedClass(
            self.space,
            tuple(canon(a + b) for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> ReducedClass:
        return ReducedClass(self.space, tuple(-a for a in self.coeffs))

    def __sub__(self, other: ReducedClass) -> ReducedClass:
        return self + (-other)

    def scaled(self, factor: Rational) -> ReducedClass:
        f = _scalar(factor)
        return ReducedClass(self.space, tuple(canon(f * a) for a in self.coeffs))


def pair(a: ReducedClass, b: ReducedClass) -> Rational:
    """Intersection pairing of two degree-2 classes on a reduced space.

    The Gram data is ``u*u = 1`` on the projective plane;
    ``x*x = 0, x*y = 1, y*y = 0`` on the trivial bundle; and
    ``x*x = 0, x*y = 1, y*y = -1`` on the nontrivial bundle.
    """
    a._check(b)
    form = a.space.form
    if form == PROJECTIVE_PLANE:
        return canon(a.coeffs[0] * b.coeffs[0])
    p1, q1 = a.coeffs
    p2, q2 = b.coeffs
    value = p1 * q2 + q1 * p2
    if form == NONTRIVIAL_BUNDLE:
        value -= q1 * q2
    return canon(value)


def c1_reduced(space: ReducedSpaceType) -> ReducedClass:
    """First Chern class of a reduced space.

    The projective plane gives ``3u``; the trivial bundle over a
    genus-g surface gives ``(2-2g)x + 2y``; the nontrivial one gives
    ``(3-2g)x + 2y``.
    """
    if space.form == PROJECTIVE_PLANE:
        return ReducedClass.make(space, 3)
    if space.form == TRIVIAL_BUNDLE:
        return ReducedClass.make(space, 2 - 2 * space.genus, 2)
    return ReducedClass.make(space, 3 - 2 * space.genus, 2)


def fiber_class(space: ReducedSpaceType) -> ReducedClass:
    """The sphere-fiber class ``x`` (the hyperplane class on the plane)."""
    if space.form == PROJECTIVE_PLANE:
        return ReducedClass.make(space, 1)
    return ReducedClass.make(space, 1, 0)


def fiber_area(v: ReducedClass) -> Rational:
    """Pairing against the fiber class: the symplectic area of a fiber."""
    return pair(v, fiber_class(v.space))


def base_area(v: ReducedClass) -> Rational:
    """Pairing against the section class of a bundle form."""
    if v.space.form == PROJECTIVE_PLANE:
        raise CarrierMismatchError("the projective plane has no section class")
    return pair(v, ReducedClass.make(v.space, 0, 1))
