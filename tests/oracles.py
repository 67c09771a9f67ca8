"""Equivariant Euler classes and their inverses, formed as classes.

The package integrates in closed form against each component's Euler
shape (``localization._euler_shape``) and never forms an Euler class or
its inverse. The equation and integral oracles of the tests form both,
multiply them out and integrate the product, so they check the closed
form by a second route.
"""

from semifree.algebra import EquivariantClass
from semifree.fixed_points import FixedComponent
from semifree.localization import _euler_shape
from semifree.rationals import qdiv


class NotInvertibleError(ValueError):
    """Raised when a class does not have the shape of an Euler class."""


def equivariant_euler(component: FixedComponent) -> EquivariantClass:
    """Equivariant Euler class ``sigma lam^m + beta lam^(m-1) u`` of the
    normal bundle of a fixed component."""
    m, sigma, beta = _euler_shape(component)
    return EquivariantClass.make(component.kind, {m: sigma, m - 1: (0, beta)})


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
