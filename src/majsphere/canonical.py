"""Canonical representative states for up to five qubits.

Every degeneracy class with at most three distinct sites is a single SLOCC
class and gets a fixed representative from one table.  The continuum of
generic classes is parameterized by anchoring three sites on the
equilateral equatorial triangle {1, w, w^2} (w = exp(2*pi*i/3)) and folding
the remaining sites with the rotations that preserve the anchored picture:
z -> w^a * z (about the polar axis) and z -> 1/z (a half turn through the
z = 1 vertex).  The fold keeps the image of least (theta, phi), which lies
in the half-open domain [0, pi/2) x [0, 2pi/3) together with the equator
edge {pi/2} x [0, pi/3].

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

from .errors import DomainError
from .moebius import MoebiusMap, from_three_points
from .plane import TAU, ExtendedComplex
# majorana_roots and degeneracy_configuration go unused; bench/spans.py patches them
from .symstate import (
    RootMultiset, SymmetricState, dicke, majorana_roots, state_from_roots, state_to_doc
)
from .classify import DEFAULT_TOL, analyze, degeneracy_configuration

OMEGA = cmath.exp(2j * math.pi / 3.0)
#: slack for half-open domain edges; boundary points snap deterministically
BOUNDARY_SLACK = 1e-9

#: the anchored equatorial triangle
TRIANGLE = (1.0 + 0.0j, OMEGA, OMEGA * OMEGA)
#: the six maps preserving it: the three rotations, then the three flips
FOLD_GROUP = tuple(
    [MoebiusMap(OMEGA**a, 0.0, 0.0, 1.0) for a in range(3)]
    + [MoebiusMap(0.0, OMEGA**a, 1.0, 0.0) for a in range(3)]
)


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


_HALF = 0.5 * math.pi

#: (n, partition) -> (params, constructor) for every class with at most three sites
_FIXED = {
    (2, (2,)): ((), lambda: dicke(2, 0)),
    (2, (1, 1)): ((), lambda: dicke(2, 1)),
    (3, (3,)): ((), lambda: dicke(3, 0)),
    (3, (2, 1)): ((), lambda: dicke(3, 1)),
    (3, (1, 1, 1)): ((), lambda: SymmetricState([1.0, 0.0, 0.0, 1.0])),
    (4, (4,)): ((), lambda: dicke(4, 0)),
    (4, (3, 1)): ((), lambda: dicke(4, 1)),
    (4, (2, 2)): ((), lambda: dicke(4, 2)),
    (4, (2, 1, 1)): ((_HALF, 0.0), lambda: family_state_4(1.0)),
    (5, (5,)): ((), lambda: dicke(5, 0)),
    (5, (4, 1)): ((), lambda: dicke(5, 1)),
    (5, (3, 2)): ((), lambda: dicke(5, 2)),
    (5, (3, 1, 1)): ((_HALF, 0.0), lambda: family_state_5(1.0)),
    (5, (2, 2, 1)): ((_HALF, TAU / 3.0), lambda: family_state_5(OMEGA)),
}


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


def _fold(w: ExtendedComplex) -> tuple[float, float]:
    """(theta, phi) of the least fold image of the moving point w.

    The six images are snapped (phi near 2pi to 0, theta near pi/2 to the
    equator); of those within ``BOUNDARY_SLACK`` of the least theta, the one
    of least phi wins.  On the equator phi is capped at pi/3, the end of
    the equator edge.
    """
    images = []
    for g in FOLD_GROUP:
        theta, phi = _moving_param(g(w))
        if abs(theta - _HALF) <= BOUNDARY_SLACK:
            theta = _HALF
        images.append((theta, _snap_phi(phi)))
    lowest = min(theta for theta, _ in images) + BOUNDARY_SLACK
    theta, phi = min((p for p in images if p[0] <= lowest), key=lambda p: p[1])
    if theta == _HALF:
        phi = min(phi, TAU / 6.0)
    return theta, phi


def _form(s: SymmetricState, tol: float) -> CanonicalForm:
    """Fixed form, or one-parameter family form, of a state with 2..5 qubits
    and at most four distinct sites."""
    n = s.n
    _, dc, clustered = analyze(s, tol)
    entry = _FIXED.get((n, dc.partition))
    if entry is not None:
        params, build = entry
        return CanonicalForm(n, dc.partition, params, build())
    # four sites, the doubled one (n = 5) first: three anchors and the mover
    sites = [site for site, _ in sorted(clustered.sites, key=lambda sm: -sm[1])]
    anchor = from_three_points(*sites[:3], *TRIANGLE)
    theta, phi = _fold(anchor(sites[3]))
    family = family_state_4 if n == 4 else family_state_5
    return CanonicalForm(n, dc.partition, (theta, phi), family(param_to_t(theta, phi)))


def _form_5_generic(s: SymmetricState, tol: float) -> CanonicalForm:
    """A representative of a five-qubit state with five distinct sites.

    Three sites are anchored on the triangle, the half turn z -> 1/z brings
    the fourth point into the closed northern hemisphere, and a polar-axis
    rotation by a multiple of 2pi/3 brings the fifth point's azimuth into
    [0, 2pi/3).  The parameterization is over-complete, so the result is
    flagged non-unique.
    """
    _, dc, clustered = analyze(s, tol)
    sites = clustered.points()
    anchor = from_three_points(*sites[:3], *TRIANGLE)
    w4 = anchor(sites[3])
    w5 = anchor(sites[4])
    theta1, phi1 = _moving_param(w4)
    flip = theta1 > _HALF + BOUNDARY_SLACK or (
        abs(theta1 - _HALF) <= BOUNDARY_SLACK and phi1 > math.pi + BOUNDARY_SLACK
    )
    if flip:
        w4 = FOLD_GROUP[3](w4)
        w5 = FOLD_GROUP[3](w5)
    third = TAU / 3.0
    for _ in range(2):
        _, phi2 = _moving_param(w5)
        spin = int(_snap_phi(phi2) // third) % 3
        if spin == 0:
            break
        w4 = FOLD_GROUP[spin](w4)
        w5 = FOLD_GROUP[spin](w5)
    theta1, phi1 = _moving_param(w4)
    theta2, phi2 = _moving_param(w5)
    phi1 = _snap_phi(phi1)
    phi2 = _snap_phi(phi2)
    degenerate_pole = any(
        w.is_infinite or abs(w.value) <= 1e-18 for w in (w4, w5)
    )
    if degenerate_pole:
        # a moving point at a pole has t = 0 or infinite; build from roots
        finite = list(TRIANGLE)
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
    """Canonical form of any state with n <= 5 qubits.

    The partition is always ``analyze``'s.  Every partition with at most
    three sites maps to a fixed representative; (2,1,1) and (3,1,1) sit at
    the family point (pi/2, 0), where the moving point joins the z = 1
    vertex, and (2,2,1) at (pi/2, 2pi/3).  For four distinct sites (n = 4)
    or partition (2,1,1,1) the doubled site, if any, goes to the z = 1
    vertex, two more sites to the other vertices, and the remaining image
    takes its fold image of least (theta, phi); see :func:`_fold`.  Five
    distinct sites get the over-complete generic representative, flagged
    non-unique.

    At n = 5 the fold uses the full six-element triangle group even though
    only {z, 1/z} preserves the anchored picture pointwise: the map fixing 1
    and sending (u, w) to (w, w^2) provably sends w^2 to u*w^2, so trading
    the moving point against an anchored single shifts the family parameter
    by a cube root of unity while staying in the same SLOCC class.  The
    azimuth period of the class parameter is therefore 2*pi/3, not 2*pi.
    """
    n = s.n
    if n > 5:
        raise DomainError("canonical forms are available for n <= 5 only")
    if n == 1:
        return CanonicalForm(1, (1,), (), dicke(1, 0))
    if n == 5 and analyze(s, tol).dc.diversity == 5:
        return _form_5_generic(s, tol)
    return _form(s, tol)


def form_to_doc(cf: CanonicalForm) -> dict:
    """JSON document {"n", "partition", "params", "state"}."""
    return {
        "n": cf.n,
        "partition": [int(p) for p in cf.partition],
        "params": [float(p) for p in cf.params],
        "state": state_to_doc(cf.state),
    }
