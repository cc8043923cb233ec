"""Moebius transformations of the extended complex plane.

A map z -> (a*z + b)/(c*z + d) is stored as a 2x2 complex matrix normalized
to determinant one (either sign of the square root describes the same map).
Besides the group operations the module provides interpolation through point
triples, the cross-ratio, the parabolic/elliptic/hyperbolic/loxodromic
classification, a projective-unitarity test, and the unique factorization of
a map into a rotation and an affine stretch ``z -> A*z + B`` with A > 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .plane import (
    INFINITY,
    ExtendedComplex,
    Pointlike,
    chordal_distance,
    complex_pair,
    from_homogeneous,
    homogeneous_pair,
    parse_pairs,
    point_sort_key,
)

#: chordal separation below which triple points count as coincident
_DISTINCT_TOL = 1e-12


class MoebiusMap:
    """Invertible map z -> (a*z + b)/(c*z + d), kept at determinant one."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        for entry in (a, b, c, d):
            if not (math.isfinite(entry.real) and math.isfinite(entry.imag)):
                raise DomainError("matrix entries must be finite")
        det = a * d - b * c
        scale = abs(a) + abs(b) + abs(c) + abs(d)
        if det == 0 or abs(det) <= 1e-13 * scale * scale:
            raise DomainError("matrix is singular (ad - bc = 0)")
        if abs(det - 1.0) > 1e-15:
            # principal square root: Re >= 0, Im > 0 on the negative axis
            r = cmath.sqrt(det)
            a, b, c, d = a / r, b / r, c / r, d / r
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def scaling(cls, s) -> "MoebiusMap":
        """The map z -> s*z (s != 0)."""
        s = complex(s)
        if s == 0:
            raise DomainError("scaling factor must be nonzero")
        return cls(s, 0.0, 0.0, 1.0)

    @classmethod
    def translation(cls, t) -> "MoebiusMap":
        """The map z -> z + t."""
        return cls(1.0, complex(t), 0.0, 1.0)

    @classmethod
    def from_matrix(cls, m) -> "MoebiusMap":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise DomainError("expected a 2x2 matrix")
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    def __call__(self, z: Pointlike) -> ExtendedComplex:
        x, y = homogeneous_pair(z)
        return from_homogeneous(self.a * x + self.b * y, self.c * x + self.d * y)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """The map z -> self(other(z))."""
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def trace(self) -> complex:
        return self.a + self.d

    def __repr__(self):
        return f"MoebiusMap({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def _to_zero_one_inf(v1: Pointlike, v2: Pointlike, v3: Pointlike) -> MoebiusMap:
    # map sending (v1, v2, v3) -> (0, 1, inf), built from homogeneous 2x2 minors
    (x1, y1), (x2, y2), (x3, y3) = (homogeneous_pair(v) for v in (v1, v2, v3))
    d23 = x2 * y3 - x3 * y2
    d21 = x2 * y1 - x1 * y2
    return MoebiusMap(y1 * d23, -x1 * d23, y3 * d21, -x3 * d21)


def from_three_points(
    v1: Pointlike, v2: Pointlike, v3: Pointlike,
    w1: Pointlike, w2: Pointlike, w3: Pointlike,
) -> MoebiusMap:
    """The unique map sending (v1, v2, v3) to (w1, w2, w3).

    Each triple must consist of pairwise distinct points.
    """
    for triple, name in (((v1, v2, v3), "source"), ((w1, w2, w3), "target")):
        for i in range(3):
            for j in range(i + 1, 3):
                if chordal_distance(triple[i], triple[j]) <= _DISTINCT_TOL:
                    raise DomainError(f"{name} triple contains coincident points")
    fwd = _to_zero_one_inf(v1, v2, v3)
    back = _to_zero_one_inf(w1, w2, w3)
    return back.inverse().compose(fwd)


def cross_ratio(
    v1: Pointlike, v2: Pointlike, v3: Pointlike, v4: Pointlike
) -> ExtendedComplex:
    """Cross-ratio (v1-v3)(v2-v4) / ((v2-v3)(v1-v4)) with limits at infinity.

    Computed from homogeneous 2x2 minors, which realizes the limit rule of
    cancelling the two factors that contain an infinite point.
    """
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = (homogeneous_pair(v) for v in (v1, v2, v3, v4))
    num = (x1 * y3 - x3 * y1) * (x2 * y4 - x4 * y2)
    den = (x2 * y3 - x3 * y2) * (x1 * y4 - x4 * y1)
    if den == 0 and num == 0:
        raise DomainError("cross-ratio is an undefined 0/0 combination")
    return from_homogeneous(num, den)


@dataclass(frozen=True)
class MapClass:
    """Classification of a map: its kind and the points it leaves fixed.

    ``kind`` is one of identity, parabolic, elliptic, hyperbolic, loxodromic.
    The identity fixes everything and carries an empty tuple; a parabolic map
    has exactly one fixed point, every other kind exactly two.
    """

    kind: str
    fixed_points: tuple[ExtendedComplex, ...]


def classify_map(m: MoebiusMap, tol: float = 1e-10) -> MapClass:
    """Kind of the map from the squared trace, plus its fixed points."""
    near_id = min(
        max(abs(m.a - 1), abs(m.b), abs(m.c), abs(m.d - 1)),
        max(abs(m.a + 1), abs(m.b), abs(m.c), abs(m.d + 1)),
    )
    if near_id <= 1e-12:
        return MapClass("identity", ())

    tr2 = m.trace() ** 2
    real_part = tr2.real
    is_real = abs(tr2.imag) <= tol * (1.0 + abs(tr2))
    if is_real and abs(real_part - 4.0) <= tol * (1.0 + abs(tr2)):
        kind = "parabolic"
    elif is_real and 0.0 <= real_part < 4.0:
        kind = "elliptic"
    elif is_real and real_part > 4.0:
        kind = "hyperbolic"
    else:
        kind = "loxodromic"

    def point(z: complex) -> ExtendedComplex:
        if math.isfinite(z.real) and math.isfinite(z.imag):
            return ExtendedComplex(z)
        return INFINITY

    # fixed points solve c z^2 + (d - a) z - b = 0; discriminant is tr^2 - 4
    if m.c == 0:
        if kind == "parabolic":
            return MapClass(kind, (INFINITY,))
        return MapClass(kind, (point(m.b / (m.d - m.a)), INFINITY))
    diff = m.a - m.d
    if kind == "parabolic":
        return MapClass(kind, (point(diff / (2.0 * m.c)),))
    s = cmath.sqrt(tr2 - 4.0)
    if (diff.real * s.real + diff.imag * s.imag) < 0.0:
        s = -s
    r1 = (diff + s) / (2.0 * m.c)
    if r1 == 0:
        r2 = (diff - s) / (2.0 * m.c)
    else:
        r2 = (-m.b / m.c) / r1
    return MapClass(kind, tuple(sorted([point(r1), point(r2)], key=point_sort_key)))


def is_projective_unitary(m: MoebiusMap, tol: float = 1e-9):
    """SU(2) representative of the map when it is a sphere rotation, else None.

    Accepts when the stored determinant-one matrix satisfies m^dag m = 1
    within ``tol`` entrywise; the returned representative is the exact
    special-unitary matrix nearest to it.
    """
    mat = m.matrix
    gram = mat.conj().T @ mat
    dev = float(np.max(np.abs(gram - np.eye(2))))
    if dev > tol:
        return None
    u, _, vh = np.linalg.svd(mat)
    w = u @ vh
    det = w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]
    w = w / cmath.sqrt(det)
    alpha = 0.5 * (w[0, 0] + w[1, 1].conjugate())
    beta = 0.5 * (w[1, 0] - w[0, 1].conjugate())
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    alpha, beta = alpha / norm, beta / norm
    return MoebiusMap(alpha, -beta.conjugate(), beta, alpha.conjugate())


@dataclass(frozen=True)
class AffineMap:
    """The stretch-and-shift map z -> A*z + B with A > 0."""

    A: float
    B: complex

    def __post_init__(self):
        a = float(self.A)
        b = complex(self.B)
        if not (math.isfinite(a) and a > 0.0):
            raise DomainError("affine scale A must be a positive real")
        if not (math.isfinite(b.real) and math.isfinite(b.imag)):
            raise DomainError("affine offset B must be finite")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @classmethod
    def from_translation(cls, h1: float, h2: float, displacement) -> "AffineMap":
        """Affine map of a sphere translation taking the north-pole height
        from h1 to h2 with the given horizontal displacement."""
        if not (h1 > 0.0 and h2 > 0.0):
            raise DomainError("pole heights must be positive")
        return cls(h2 / h1, complex(displacement))

    def as_moebius(self) -> MoebiusMap:
        return MoebiusMap(self.A, self.B, 0.0, 1.0)


@dataclass(frozen=True)
class Decomposition:
    """Unique factorization map = rotation . affine, up to the positive
    prefactor ``lam`` on the determinant-one matrices."""

    rotation: MoebiusMap
    affine: AffineMap
    lam: float


def decompose_affine(m: MoebiusMap) -> Decomposition:
    """Split a map into a sphere rotation following an affine stretch.

    With lam = sqrt(|a|^2 + |c|^2) the product rotation_matrix @ affine_matrix
    reproduces lam times the stored matrix entrywise.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    big_a = abs(a) ** 2 + abs(c) ** 2
    lam = math.sqrt(big_a)
    alpha = a / lam
    beta = c / lam
    if abs(a) >= abs(c):
        big_b = (big_a * b + c.conjugate()) / a
    else:
        big_b = (big_a * d - a.conjugate()) / c
    rotation = MoebiusMap(alpha, -beta.conjugate(), beta, alpha.conjugate())
    return Decomposition(rotation, AffineMap(big_a, big_b), lam)


def translation_view(aff: AffineMap, h1: float) -> tuple[float, complex]:
    """Sphere-translation reading of an affine map: a sphere whose north pole
    starts h1 above the plane ends at height A*h1, displaced horizontally by B."""
    if not (math.isfinite(h1) and h1 > 0.0):
        raise DomainError("initial pole height must be positive")
    return aff.A * h1, aff.B


def map_to_doc(m: MoebiusMap) -> dict:
    """JSON document {"matrix": [[re, im] x 4]} row-major."""
    return {"matrix": [complex_pair(entry) for entry in (m.a, m.b, m.c, m.d)]}


def map_from_doc(doc) -> MoebiusMap:
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise DomainError('matrix document must be an object with a "matrix" key')
    entries = doc["matrix"]
    if not (isinstance(entries, list) and len(entries) == 4):
        raise DomainError('"matrix" must list four [re, im] pairs (row-major)')
    return MoebiusMap(*parse_pairs(entries, "matrix entries"))
