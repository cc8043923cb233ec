"""Points of the extended complex plane and their sphere coordinates.

The stereographic convention used throughout the package maps a plane point
z to the sphere point with polar angle ``theta = 2*arctan(1/|z|)`` and
azimuth ``phi = (-arg z) mod 2*pi``, i.e. ``z = cot(theta/2) * exp(-i*phi)``.
The point at infinity sits at the north pole (theta = 0) and z = 0 at the
south pole.  Distances between points are measured with the chordal metric
of the embedded unit sphere, which stays finite at infinity.  The module
also holds what the other modules share about points: their serialization
order, their homogeneous coordinates and the JSON [re, im] pair codec.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DomainError

TAU = 2.0 * math.pi


class ExtendedComplex:
    """A point of the extended complex plane: a finite value or infinity.

    Instances are immutable.  The unique infinite point is the module
    constant :data:`INFINITY`; the constructor only builds finite points.
    """

    __slots__ = ("_value",)

    def __init__(self, value):
        value = complex(value)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise DomainError("a finite point needs finite real and imaginary parts")
        self._value = value

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def value(self) -> complex:
        if self._value is None:
            raise DomainError("the point at infinity has no finite value")
        return self._value

    def __complex__(self) -> complex:
        return self.value

    def __eq__(self, other):
        if isinstance(other, ExtendedComplex):
            return self._value == other._value
        if isinstance(other, (int, float, complex)):
            try:
                return self._value == complex(other)
            except (TypeError, ValueError, OverflowError):
                return NotImplemented
        return NotImplemented

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        if self._value is None:
            return "INFINITY"
        return f"ExtendedComplex({self._value!r})"


INFINITY = object.__new__(ExtendedComplex)
INFINITY._value = None

Pointlike = Union[ExtendedComplex, complex, float, int]


def as_point(x: Pointlike) -> ExtendedComplex:
    """Coerce a plain number to :class:`ExtendedComplex` (identity on instances)."""
    if isinstance(x, ExtendedComplex):
        return x
    return ExtendedComplex(x)


def chordal_distance(p: Pointlike, q: Pointlike) -> float:
    """Chordal distance between two extended-plane points (range [0, 2])."""
    p = as_point(p)
    q = as_point(q)
    if p.is_infinite and q.is_infinite:
        return 0.0
    if p.is_infinite or q.is_infinite:
        z = q.value if p.is_infinite else p.value
        return 2.0 / math.hypot(1.0, abs(z))
    z, w = p.value, q.value
    return 2.0 * abs(z - w) / (math.hypot(1.0, abs(z)) * math.hypot(1.0, abs(w)))


def point_sort_key(p: Pointlike) -> tuple[int, float, float]:
    """Serialization order of points: finite before infinity, then by
    modulus, then by argument mod 2*pi."""
    if isinstance(p, ExtendedComplex):
        if p.is_infinite:
            return (1, 0.0, 0.0)
        p = p.value
    return (0, abs(p), cmath.phase(p) % TAU)


def homogeneous(points: Sequence[Pointlike]) -> np.ndarray:
    """Homogeneous coordinates of the points as a 2 x n complex array:
    (z, 1) for a finite point, (1, 0) for infinity."""
    return np.array([
        [1.0 if p is INFINITY else complex(p) for p in points],
        [0.0 if p is INFINITY else 1.0 for p in points],
    ], dtype=complex)


def chordal_distance_matrix(points: Sequence[Pointlike]) -> np.ndarray:
    """Chordal distances between all pairs of the given points, as an n x n
    array; each entry follows the formula of :func:`chordal_distance`."""
    # |x_i y_j - x_j y_i| is |z_i - z_j| exactly for finite pairs
    x, y = homogeneous(points)
    scale = np.hypot(np.abs(x), np.abs(y))
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * np.abs(np.outer(x, y) - np.outer(y, x)) / np.outer(scale, scale)


@dataclass(frozen=True)
class SpherePoint:
    """Sphere coordinates (theta, phi); phi is normalized to [0, 2*pi) and
    forced to 0 at the poles."""

    theta: float
    phi: float

    def __post_init__(self):
        th = float(self.theta)
        ph = float(self.phi)
        if not (math.isfinite(th) and math.isfinite(ph)):
            raise DomainError("sphere angles must be finite")
        if th < -1e-12 or th > math.pi + 1e-12:
            raise DomainError(f"theta={th!r} outside [0, pi]")
        th = min(max(th, 0.0), math.pi)
        ph = ph % TAU
        if th == 0.0 or th == math.pi:
            ph = 0.0
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "phi", ph)


def to_sphere(p: Pointlike) -> SpherePoint:
    """Sphere point of an extended-plane point; infinity maps to the north pole."""
    p = as_point(p)
    if p.is_infinite:
        return SpherePoint(0.0, 0.0)
    z = p.value
    theta = 2.0 * math.atan2(1.0, abs(z))
    phi = (-cmath.phase(z)) % TAU
    return SpherePoint(theta, phi)


def from_sphere(sp: SpherePoint) -> ExtendedComplex:
    """Inverse of :func:`to_sphere`; the north pole maps to infinity."""
    if sp.theta == 0.0:
        return INFINITY
    if sp.theta == math.pi:
        return ExtendedComplex(0.0)
    r = 1.0 / math.tan(0.5 * sp.theta)
    return ExtendedComplex(cmath.rect(r, -sp.phi))


def sphere_xyz(sp: SpherePoint) -> tuple[float, float, float]:
    """Cartesian unit vector of a sphere point (north pole = +z)."""
    s = math.sin(sp.theta)
    return (s * math.cos(sp.phi), s * math.sin(sp.phi), math.cos(sp.theta))


def point_xyz(p: Pointlike) -> tuple[float, float, float]:
    return sphere_xyz(to_sphere(p))


def sphere_from_xyz(x: float, y: float, z: float) -> SpherePoint:
    r = math.sqrt(x * x + y * y + z * z)
    if r == 0.0:
        raise DomainError("zero vector has no direction")
    theta = math.atan2(math.hypot(x, y), z)
    phi = math.atan2(y, x) % TAU
    return SpherePoint(theta, phi)


def parse_pairs(entries, what: str) -> list[complex]:
    """Complex values of a JSON list of [re, im] number pairs; ``what``
    names the entries in the error message."""
    values = []
    for pair in entries:
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise DomainError(f"{what} must be [re, im] number pairs")
        values.append(complex(float(pair[0]), float(pair[1])))
    return values


def complex_pair(z: complex) -> list[float]:
    """JSON [re, im] pair of a complex value."""
    return [float(z.real), float(z.imag)]


def single_linkage(near: np.ndarray) -> list[list[int]]:
    """Single-linkage clusters of n items, given the symmetric boolean n x n
    matrix of the pairs within tolerance (the diagonal is ignored): two
    items share a cluster when a chain of such pairs connects them.

    Returns index groups in increasing order, ordered by first member.
    """
    parent = list(range(len(near)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, cols = np.nonzero(near)
    above = rows < cols
    for i, j in zip(rows[above].tolist(), cols[above].tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(len(parent)):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]
