"""Shared random generators and small utilities for the test suite."""

import cmath
import math

import numpy as np

from majsphere import (
    INFINITY,
    ExtendedComplex,
    MoebiusMap,
    RootMultiset,
    SymmetricState,
    chordal_distance,
)

OMEGA = cmath.exp(2j * math.pi / 3.0)


def random_state(rng, n):
    amps = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return SymmetricState(amps)


def random_moebius(rng, max_norm=4.0):
    """Random determinant-one map with bounded distortion (keeps the chordal
    contraction of well-separated points away from the noise floor)."""
    while True:
        mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(mat)) < 0.3:
            continue
        m = MoebiusMap(*mat.flatten())
        if np.linalg.norm(m.matrix) <= max_norm:
            return m


def random_rotation(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = v / np.linalg.norm(v)
    alpha, beta = complex(v[0]), complex(v[1])
    return MoebiusMap(alpha, -beta.conjugate(), beta, alpha.conjugate())


def random_point(rng, allow_infinity=False):
    if allow_infinity and rng.uniform() < 0.1:
        return INFINITY
    # uniform on the sphere, mapped down to the plane
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    theta = math.acos(z)
    if theta == 0.0:
        return INFINITY
    return ExtendedComplex(cmath.rect(1.0 / math.tan(theta / 2.0), -phi))


def separated_points(rng, count, min_sep, allow_infinity=False, anchors=()):
    """``count`` points pairwise farther than min_sep apart, starting with
    the given anchors."""
    points = list(anchors)
    while len(points) < count:
        p = random_point(rng, allow_infinity)
        if all(chordal_distance(p, q) > min_sep for q in points):
            points.append(p)
    return points


def separated_root_multiset(rng, n, min_sep=0.05, allow_infinity=False):
    points = separated_points(rng, n, min_sep, allow_infinity)
    finite = tuple(p.value for p in points if not p.is_infinite)
    return RootMultiset(n, finite, n - len(finite))


def multiset_matches(r1, r2, tol=1e-8):
    """Greedy matching of two root multisets in the chordal metric."""
    if r1.n != r2.n or r1.infinity_count != r2.infinity_count:
        return False
    remaining = list(r2.finite_roots)
    for z in r1.finite_roots:
        best = min(
            range(len(remaining)),
            key=lambda i: chordal_distance(z, remaining[i]),
            default=None,
        )
        if best is None or chordal_distance(z, remaining[best]) > tol:
            return False
        remaining.pop(best)
    return not remaining
