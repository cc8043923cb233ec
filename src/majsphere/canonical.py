"""Canonical representative states for up to five qubits.

Every degeneracy class with at most three distinct sites is a single SLOCC
class and gets a fixed representative.  The continuum of generic classes is
parameterized by anchoring three sites on the equilateral equatorial
triangle {1, w, w^2} (w = exp(2*pi*i/3)) and folding the remaining sites
into a half-open fundamental domain with the rotations that preserve the
anchored picture: z -> w^a * z (about the polar axis) and z -> 1/z (a half
turn through the z = 1 vertex).

The four-qubit family  2|S0> + t|S1> + |S3> + 2t|S4>  has point set
{1, w, w^2, 1/t}; the degenerate five-qubit family
sqrt(10)(|S0> + t|S5>) + t|S2> + |S3> + sqrt(2)(1+t)(|S1> + |S4>)  has
{1, 1, w, w^2, 1/t}; the generic five-qubit family replaces (1+t) by
(t1 + t2) and t by t1*t2, with point set {1, w, w^2, 1/t1, 1/t2}.  In all
three, t = exp(i*phi) * tan(theta/2) places the moving point at (theta, phi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, NumericalError
from .moebius import MoebiusMap, from_three_points
from .plane import TAU, ExtendedComplex, chordal_distance
# majorana_roots and degeneracy_configuration go unused; bench/spans.py patches them
from .symstate import RootMultiset, SymmetricState, dicke, majorana_roots, state_from_roots
from .classify import DEFAULT_TOL, DegeneracyConfiguration, analyze, degeneracy_configuration

OMEGA = cmath.exp(2j * math.pi / 3.0)
#: slack for half-open domain edges; boundary points snap deterministically
BOUNDARY_SLACK = 1e-9


@dataclass(frozen=True)
class TriangleFrame:
    """The anchored equatorial triangle and the six maps preserving it."""

    vertices: tuple[complex, complex, complex]
    fold_group: tuple[MoebiusMap, ...]


def triangle_frame() -> TriangleFrame:
    vertices = (1.0 + 0.0j, OMEGA, OMEGA * OMEGA)
    rotations = [MoebiusMap(OMEGA**a, 0.0, 0.0, 1.0) for a in range(3)]
    flips = [MoebiusMap(0.0, OMEGA**a, 1.0, 0.0) for a in range(3)]
    return TriangleFrame(vertices, tuple(rotations + flips))


TRIANGLE = triangle_frame()


@dataclass(frozen=True)
class CanonicalForm:
    """A representative state with its class label and sphere parameters.

    ``params`` is empty for the fixed representatives, (theta, phi) for the
    one-parameter families and (theta1, phi1, theta2, phi2) for the generic
    five-qubit family.  ``unique`` is False where the parameterization is
    over-complete.
    """

    n: int
    partition: tuple[int, ...]
    params: tuple[float, ...]
    state: SymmetricState
    unique: bool = True


def param_to_t(theta: float, phi: float) -> complex:
    return cmath.rect(math.tan(0.5 * theta), phi)


def t_to_param(t: complex) -> tuple[float, float]:
    if t == 0:
        return 0.0, 0.0
    return 2.0 * math.atan(abs(t)), cmath.phase(t) % TAU


def family_state_4(t: complex) -> SymmetricState:
    """Four-qubit family state with points {1, w, w^2, 1/t}."""
    t = complex(t)
    return SymmetricState([2.0, t, 0.0, 1.0, 2.0 * t])


def family_state_5(t: complex) -> SymmetricState:
    """Degenerate five-qubit family state with points {1, 1, w, w^2, 1/t}."""
    t = complex(t)
    s2 = math.sqrt(2.0)
    s10 = math.sqrt(10.0)
    return SymmetricState([s10, s2 * (1.0 + t), t, 1.0, s2 * (1.0 + t), s10 * t])


def family_state_5_generic(t1: complex, t2: complex) -> SymmetricState:
    """Generic five-qubit family state with points {1, w, w^2, 1/t1, 1/t2}."""
    t1, t2 = complex(t1), complex(t2)
    s2 = math.sqrt(2.0)
    s10 = math.sqrt(10.0)
    prod = t1 * t2
    plus = t1 + t2
    return SymmetricState([s10, s2 * plus, prod, 1.0, s2 * plus, s10 * prod])


def representative_small(n: int, dc: DegeneracyConfiguration) -> SymmetricState:
    """Fixed class representative for two or three qubits."""
    if isinstance(dc, tuple):
        dc = DegeneracyConfiguration(dc)
    if n not in (2, 3):
        raise DomainError("fixed small representatives cover n = 2 and n = 3")
    if dc.n != n:
        raise DomainError(f"partition {dc.partition} does not sum to n={n}")
    table = {
        (2, (2,)): lambda: dicke(2, 0),
        (2, (1, 1)): lambda: dicke(2, 1),
        (3, (3,)): lambda: dicke(3, 0),
        (3, (2, 1)): lambda: dicke(3, 1),
        (3, (1, 1, 1)): lambda: SymmetricState([1.0, 0.0, 0.0, 1.0]),
    }
    key = (n, dc.partition)
    if key not in table:
        raise DomainError(f"invalid partition {dc.partition} for n={n}")
    return table[key]()


# --- fundamental-domain folding ----------------------------------------------


def _moving_param(u: ExtendedComplex) -> tuple[float, float]:
    """(theta, phi) of the family parameter t = 1/u for a moving point at u."""
    if u.is_infinite:
        return 0.0, 0.0  # t = 0
    if u.value == 0:
        return math.pi, 0.0  # t = infinite: point at the south pole
    return t_to_param(1.0 / u.value)


def _snap_phi(phi: float) -> float:
    return 0.0 if phi >= TAU - BOUNDARY_SLACK else phi


def _in_domain_4(theta: float, phi: float) -> Optional[tuple[float, float]]:
    """Snapped (theta, phi) if inside [0, pi/2) x [0, 2pi/3) together with
    the equator edge {pi/2} x [0, pi/3], else None."""
    phi = _snap_phi(phi)
    half = 0.5 * math.pi
    third = TAU / 3.0
    if theta < half - BOUNDARY_SLACK:
        if phi < third - BOUNDARY_SLACK:
            return theta, phi
        return None
    if abs(theta - half) <= BOUNDARY_SLACK:
        if phi <= third / 2.0 + BOUNDARY_SLACK:
            return half, min(phi, third / 2.0)
        return None
    return None


def _fold_unique(w: ExtendedComplex, folds, in_domain) -> tuple[float, float]:
    hits: list[tuple[float, float]] = []
    for g in folds:
        theta, phi = _moving_param(g(w))
        snapped = in_domain(theta, phi)
        if snapped is None:
            continue
        if not any(
            abs(snapped[0] - h[0]) <= 1e-8 and abs(snapped[1] - h[1]) <= 1e-8
            for h in hits
        ):
            hits.append(snapped)
    if len(hits) != 1:
        raise NumericalError(
            f"fold produced {len(hits)} in-domain parameters instead of one"
        )
    return hits[0]


def _near_vertex(w: ExtendedComplex, tol: float) -> Optional[int]:
    for i, v in enumerate(TRIANGLE.vertices):
        if chordal_distance(w, v) <= tol:
            return i
    return None


def canonical_4(s: SymmetricState, tol: float = DEFAULT_TOL) -> CanonicalForm:
    """Unique canonical form of a four-qubit state.

    Partitions (4), (3,1), (2,2) map to the fixed representatives |S0>,
    |S1>, |S2>.  Partition (2,1,1) maps to the family point (pi/2, 0), where
    the moving point joins the z = 1 vertex.  For four distinct sites, three
    are sent to the triangle and the image of the fourth is folded into the
    fundamental domain; a fourth point landing within ``tol`` of a vertex is
    relabeled (2,1,1) instead of producing an ill-conditioned parameter.
    """
    if s.n != 4:
        raise DomainError("canonical_4 needs a 4-qubit state")
    _, dc, clustered = analyze(s, tol)
    part = dc.partition
    if part == (4,):
        return CanonicalForm(4, part, (), dicke(4, 0))
    if part == (3, 1):
        return CanonicalForm(4, part, (), dicke(4, 1))
    if part == (2, 2):
        return CanonicalForm(4, part, (), dicke(4, 2))
    if part == (2, 1, 1):
        return CanonicalForm(4, part, (0.5 * math.pi, 0.0), family_state_4(1.0))
    sites = clustered.points()
    anchor = from_three_points(*sites[:3], *TRIANGLE.vertices)
    w = anchor(sites[3])
    if _near_vertex(w, tol) is not None:
        return CanonicalForm(4, (2, 1, 1), (0.5 * math.pi, 0.0), family_state_4(1.0))
    theta, phi = _fold_unique(w, TRIANGLE.fold_group, _in_domain_4)
    return CanonicalForm(4, part, (theta, phi), family_state_4(param_to_t(theta, phi)))


_HALF_FOLD = (MoebiusMap.identity(), MoebiusMap(0.0, 1.0, 1.0, 0.0))


def canonical_5_degenerate(
    s: SymmetricState, tol: float = DEFAULT_TOL
) -> CanonicalForm:
    """Unique canonical form of a five-qubit state with coinciding points.

    Partitions (5), (4,1), (3,2) map to |S0>, |S1>, |S2>; (3,1,1) and
    (2,2,1) sit at the family points (pi/2, 0) and (pi/2, 2pi/3).  For
    partition (2,1,1,1) the doubled site goes to the z = 1 vertex, two of
    the single sites to the other vertices, and the remaining image is
    folded into the same fundamental domain as the four-qubit family.

    The fold uses the full six-element triangle group even though only
    {z, 1/z} preserves the anchored picture pointwise: the map fixing 1 and
    sending (u, w) to (w, w^2) provably sends w^2 to u*w^2, so trading the
    moving point against an anchored single shifts the family parameter by
    a cube root of unity while staying in the same SLOCC class.  The
    azimuth period of the class parameter is therefore 2*pi/3, not 2*pi.
    """
    if s.n != 5:
        raise DomainError("canonical_5_degenerate needs a 5-qubit state")
    _, dc, clustered = analyze(s, tol)
    part = dc.partition
    if dc.diversity >= 5:
        raise DomainError("state has five distinct sites; use the generic form")
    if part == (5,):
        return CanonicalForm(5, part, (), dicke(5, 0))
    if part == (4, 1):
        return CanonicalForm(5, part, (), dicke(5, 1))
    if part == (3, 2):
        return CanonicalForm(5, part, (), dicke(5, 2))
    if part == (3, 1, 1):
        return CanonicalForm(5, part, (0.5 * math.pi, 0.0), family_state_5(1.0))
    if part == (2, 2, 1):
        return CanonicalForm(
            5, part, (0.5 * math.pi, TAU / 3.0), family_state_5(OMEGA)
        )
    # partition (2, 1, 1, 1)
    doubled = next(site for site, mult in clustered.sites if mult == 2)
    singles = [site for site, mult in clustered.sites if mult == 1]
    anchor = from_three_points(
        doubled, singles[0], singles[1], *TRIANGLE.vertices
    )
    w = anchor(singles[2])
    vertex = _near_vertex(w, tol)
    if vertex == 0:
        return CanonicalForm(5, (3, 1, 1), (0.5 * math.pi, 0.0), family_state_5(1.0))
    if vertex is not None:
        return CanonicalForm(
            5, (2, 2, 1), (0.5 * math.pi, TAU / 3.0), family_state_5(OMEGA)
        )
    theta, phi = _fold_unique(w, TRIANGLE.fold_group, _in_domain_4)
    return CanonicalForm(5, part, (theta, phi), family_state_5(param_to_t(theta, phi)))


def representative_5_generic(
    s: SymmetricState, tol: float = DEFAULT_TOL
) -> CanonicalForm:
    """A representative of a five-qubit state with five distinct sites.

    Three sites are anchored on the triangle, the half turn z -> 1/z brings
    the fourth point into the closed northern hemisphere, and a polar-axis
    rotation by a multiple of 2pi/3 brings the fifth point's azimuth into
    [0, 2pi/3).  The parameterization is over-complete, so the result is
    flagged non-unique.
    """
    if s.n != 5:
        raise DomainError("representative_5_generic needs a 5-qubit state")
    _, dc, clustered = analyze(s, tol)
    if dc.diversity != 5:
        raise DomainError("state has coinciding sites; use the degenerate form")
    sites = clustered.points()
    anchor = from_three_points(*sites[:3], *TRIANGLE.vertices)
    w4 = anchor(sites[3])
    w5 = anchor(sites[4])
    theta1, phi1 = _moving_param(w4)
    half = 0.5 * math.pi
    flip = theta1 > half + BOUNDARY_SLACK or (
        abs(theta1 - half) <= BOUNDARY_SLACK and phi1 > math.pi + BOUNDARY_SLACK
    )
    if flip:
        w4 = _HALF_FOLD[1](w4)
        w5 = _HALF_FOLD[1](w5)
    third = TAU / 3.0
    for _ in range(2):
        _, phi2 = _moving_param(w5)
        spin = int(_snap_phi(phi2) // third) % 3
        if spin == 0:
            break
        g = MoebiusMap(OMEGA**spin, 0.0, 0.0, 1.0)
        w4 = g(w4)
        w5 = g(w5)
    theta1, phi1 = _moving_param(w4)
    theta2, phi2 = _moving_param(w5)
    phi1 = _snap_phi(phi1)
    phi2 = _snap_phi(phi2)
    degenerate_pole = any(
        w.is_infinite or abs(w.value) <= 1e-18 for w in (w4, w5)
    )
    if degenerate_pole:
        # a moving point at a pole has t = 0 or infinite; build from roots
        finite = list(TRIANGLE.vertices)
        inf_count = 0
        for w in (w4, w5):
            if w.is_infinite:
                inf_count += 1
            else:
                finite.append(w.value)
        state = state_from_roots(RootMultiset(5, tuple(finite), inf_count))
    else:
        state = family_state_5_generic(1.0 / w4.value, 1.0 / w5.value)
    return CanonicalForm(
        5, dc.partition, (theta1, phi1, theta2, phi2), state, unique=False
    )


def canonicalize(s: SymmetricState, tol: float = DEFAULT_TOL) -> CanonicalForm:
    """Canonical form of any state with n <= 5 qubits."""
    n = s.n
    if n > 5:
        raise DomainError("canonical forms are available for n <= 5 only")
    if n == 1:
        return CanonicalForm(1, (1,), (), dicke(1, 0))
    if n == 4:
        return canonical_4(s, tol)
    dc = analyze(s, tol).dc
    if n in (2, 3):
        return CanonicalForm(n, dc.partition, (), representative_small(n, dc))
    if dc.diversity < 5:
        return canonical_5_degenerate(s, tol)
    return representative_5_generic(s, tol)


def form_to_doc(cf: CanonicalForm) -> dict:
    """JSON document {"n", "partition", "params", "state"}."""
    from .symstate import state_to_doc

    return {
        "n": cf.n,
        "partition": [int(p) for p in cf.partition],
        "params": [float(p) for p in cf.params],
        "state": state_to_doc(cf.state),
    }
