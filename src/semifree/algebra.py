"""Exact arithmetic for equivariant classes at fixed components.

Restricting an equivariant cohomology class to a connected fixed
component of a semi-free Hamiltonian circle action gives a Laurent
polynomial in the degree-2 equivariant parameter (written ``lam``)
with coefficients in the ordinary cohomology of the component.  For an
isolated fixed point the coefficients are rationals; for a fixed
surface they live in the two-step ring spanned by 1 and the area
generator ``u`` (with ``u * u = 0``).

A term list's coefficients may be scalars or ``Poly``: the
restriction-table skeleton's known entries are scalars and its unknown
ones ``Poly``. Integrating a class, by localization against the Euler
shapes of the fixed components, lives in ``localization``.

A second, much smaller algebra lives on the reduced spaces of the
action: the projective plane, or a sphere bundle (trivial or
nontrivial) over a surface.  Degree-2 classes there are integer or
rational combinations of the fiber class ``x`` and the section class
``y`` (a single multiple of ``u`` on the projective plane), and the
only operation needed is the intersection pairing. Each space states
its intersection form once, as the Gram matrix
``ReducedSpaceType.gram``; ``_dot`` evaluates a Gram form on scalar or
``Poly`` vectors, for ``pair`` here and for the lattice charts of the
chain engine, which start from the same matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ._solve import Poly, _scalar
from .fixed_points import POINT, SURFACE
from .rationals import Rational, canon

# ---------------------------------------------------------------------------
# carriers


class CarrierMismatchError(ValueError):
    """Raised when combining classes living on different carriers."""


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

    ``terms`` maps the exponent ``k`` to the pair ``(c_k, d_k)``;
    ``make`` drops zero pairs, while the constructor keeps the terms it
    is given.  Point carriers have no ``u`` part, so ``d_k = 0`` is
    enforced for them.
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
    def unit(carrier: str) -> EquivariantClass:
        return EquivariantClass.make(carrier, {0: (1, 0)})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def shifted(self, k: int) -> EquivariantClass:
        """Multiply by ``lam**k``."""
        return EquivariantClass(
            self.carrier, tuple((exp + k, pair) for exp, pair in self.terms)
        )


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
        return len(self.gram)

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The intersection form on the basis ``(u,)`` or ``(x, y)``.

        ``u*u = 1`` on the projective plane; ``x*x = 0`` and ``x*y = 1``
        on either bundle, with ``y*y = 0`` on the trivial form and
        ``y*y = -1`` on the nontrivial one.
        """
        if self.form == PROJECTIVE_PLANE:
            return ((1,),)
        if self.form == TRIVIAL_BUNDLE:
            return ((0, 1), (1, 0))
        return ((0, 1), (1, -1))

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


def _dot(gram: Sequence[Sequence[int]], a: Sequence, b: Sequence, into: dict | None = None):
    """``sum a_i g_ij b_j`` over the non-zero Gram entries.

    A ``Poly`` when some summed product has a ``Poly`` factor (zero
    ``Poly`` entries of ``a`` are skipped), else a canonical scalar.
    Given ``into``, a monomial dict as ``Poly.accumulate`` fills, the sum
    is added into it (the scalar part at ``()``) and ``into`` is returned,
    so an equation of several pairings is summed in one dict and
    canonicalized once by ``Poly.from_dict``.
    """
    scalar: Rational = 0
    acc: dict = {} if into is None else into
    poly = False
    for i, ai in enumerate(a):
        a_poly = isinstance(ai, Poly)
        if a_poly and ai.is_zero():
            continue
        row = gram[i]
        for j, bj in enumerate(b):
            g = row[j]
            if not g:
                continue
            if a_poly:
                poly = True
                if isinstance(bj, Poly):
                    ai.accumulate(acc, g, bj)
                else:
                    ai.accumulate(acc, g * bj)
            elif isinstance(bj, Poly):
                poly = True
                bj.accumulate(acc, ai * g)
            else:
                scalar += ai * g * bj
    if into is None and not poly:
        return canon(scalar)
    acc[()] = acc.get((), 0) + scalar
    return acc if into is not None else Poly.from_dict(acc)


def pair(a: ReducedClass, b: ReducedClass) -> Rational:
    """Intersection pairing of two degree-2 classes on a reduced space,
    the space's Gram form (``ReducedSpaceType.gram``) evaluated by ``_dot``."""
    a._check(b)
    return _dot(a.space.gram, a.coeffs, b.coeffs)


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
