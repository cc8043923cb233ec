"""Symmetric multiqubit states and their point representation on the sphere.

A permutation-symmetric n-qubit pure state is stored as its n+1 amplitudes
in the Dicke basis (ordered by excitation number k).  The state corresponds
to the degree-<=n polynomial with coefficients

    c_k = (-1)^(k-n) * a_k * sqrt(binom(n, k)),

whose n roots (counting a root at infinity for each unit of degree drop)
are the state's points on the sphere under the stereographic convention of
:mod:`majsphere.plane`.  This module provides both directions of that
correspondence plus the induced action of Moebius maps on states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .moebius import MoebiusMap
from .plane import (
    INFINITY,
    ExtendedComplex,
    chordal_distance,
    chordal_distance_matrix,
    complex_pair,
    homogeneous,
    parse_pairs,
    point_sort_key,
    single_linkage,
)

#: relative size at or below which trailing Dicke amplitudes count as zero
TRUNCATION_RTOL = 1e-12
#: scaled residual every returned root must satisfy
RESIDUAL_RTOL = 1e-10
#: Newton polishing iteration cap per root
POLISH_MAX_ITER = 100
#: consecutive Newton steps without a smaller |p| that end the polishing
_POLISH_STALLS = 3
#: chordal width of the eigenvalue fans collapsed onto multiple roots
_SHARPEN_TOL = 8e-3
#: scaled derivative residual accepted when validating a multiple root
_MULTIPLE_VALIDATE_RTOL = 1e-11
#: relative size for picking the amplitude that anchors the global phase
_PHASE_ANCHOR_RTOL = 1e-9
#: amplitudes whose largest part is above this or below its inverse are first
#: divided by that part: their 2-norm would overflow or sum subnormal squares
_RESCALE_BEYOND = 1e150


class SymmetricState:
    """Normalized symmetric state; the lowest nonzero Dicke amplitude is kept
    real and positive so that equal states have equal amplitude vectors.

    ``_analysis`` is the cache that :func:`majsphere.classify.analyze` owns:
    ``None`` or its last ``(tol, Analysis)`` for this state.  Nothing else
    reads it.
    """

    __slots__ = ("_amps", "_analysis")

    def __init__(self, amps):
        arr = np.array(amps, dtype=complex)
        if arr.ndim != 1 or arr.size < 2:
            raise DomainError("need n+1 amplitudes for some n >= 1")
        if not np.all(np.isfinite(arr)):
            raise DomainError("amplitudes must be finite")
        # the largest real or imaginary part: unlike a modulus, it cannot overflow
        biggest = float(np.max(np.abs(arr.view(float))))
        if biggest == 0.0:
            raise DomainError("the zero vector is not a state")
        if not 1.0 / _RESCALE_BEYOND <= biggest <= _RESCALE_BEYOND:
            arr = arr / biggest
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > 1e-12:
            arr = arr / norm
        anchor = int(np.nonzero(np.abs(arr) > _PHASE_ANCHOR_RTOL * np.max(np.abs(arr)))[0][0])
        pivot = arr[anchor]
        if pivot.imag != 0.0 or pivot.real < 0.0:
            arr = arr * (abs(pivot) / pivot)
        arr[anchor] = abs(arr[anchor])
        arr.flags.writeable = False
        self._amps = arr
        self._analysis = None

    @property
    def amps(self) -> np.ndarray:
        return self._amps

    @property
    def n(self) -> int:
        return self._amps.size - 1

    def __repr__(self):
        amps = ", ".join(f"{a:.4g}" for a in self._amps)
        return f"SymmetricState(n={self.n}, amps=[{amps}])"


def dicke(n: int, k: int) -> SymmetricState:
    """Basis state with k excitations among n qubits."""
    if not (isinstance(n, (int, np.integer)) and isinstance(k, (int, np.integer))):
        raise DomainError("n and k must be integers")
    if n < 1 or k < 0 or k > n:
        raise DomainError(f"need n >= 1 and 0 <= k <= n, got n={n}, k={k}")
    amps = np.zeros(int(n) + 1, dtype=complex)
    amps[int(k)] = 1.0
    return SymmetricState(amps)


def fidelity(s1: SymmetricState, s2: SymmetricState) -> float:
    """Overlap modulus |<s1|s2>| of two states of equal qubit count."""
    if s1.n != s2.n:
        raise DomainError("states must have the same qubit count")
    return float(abs(np.vdot(s1.amps, s2.amps)))


@dataclass(frozen=True)
class RootMultiset:
    """The n sphere points of a state: finite roots with repetition plus a
    multiplicity at infinity.  Roots are kept sorted by (modulus, argument);
    the ordering is purely for deterministic serialization."""

    n: int
    finite_roots: tuple[complex, ...]
    infinity_count: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise DomainError("total multiplicity n must be a positive integer")
        object.__setattr__(self, "n", int(self.n))
        roots = tuple(complex(z) for z in self.finite_roots)
        for z in roots:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise DomainError("finite roots must be finite")
        if not isinstance(self.infinity_count, (int, np.integer)) or self.infinity_count < 0:
            raise DomainError("infinity_count must be a nonnegative integer")
        object.__setattr__(self, "infinity_count", int(self.infinity_count))
        if len(roots) + self.infinity_count != self.n:
            raise DomainError("finite roots plus infinity_count must equal n")
        roots = tuple(sorted(roots, key=point_sort_key))
        object.__setattr__(self, "finite_roots", roots)

    def points(self) -> tuple[ExtendedComplex, ...]:
        """All n roots as extended-plane points (infinity included)."""
        finite = tuple(ExtendedComplex(z) for z in self.finite_roots)
        return finite + (INFINITY,) * self.infinity_count


def _dicke_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Signs (-1)^(n-k) and weights sqrt(binom(n, k)) for k = 0..n."""
    signs = np.array([1.0 if (n - k) % 2 == 0 else -1.0 for k in range(n + 1)])
    weights = np.array([math.sqrt(math.comb(n, k)) for k in range(n + 1)])
    return signs, weights


def majorana_polynomial(s: SymmetricState) -> np.ndarray:
    """Coefficients c_0..c_n (lowest order first) of the polynomial whose
    roots are the state's sphere points."""
    signs, weights = _dicke_weights(s.n)
    return signs * s.amps * weights


# --- root finding -----------------------------------------------------------
#
# Companion-matrix eigenvalues (with LAPACK balancing) start the roots off,
# Newton polishing tightens simple roots, and a sharpening pass collapses the
# eigenvalue fan a multiple root scatters into (radius ~ eps^(1/m)) onto the
# nearby simple root of the (m-1)-th derivative, which is well conditioned.
# Newton keeps the iterate of smallest |p| and stops once |p| has not gone
# below that for a few steps in a row: |p| then sits at its rounding floor,
# which members of a multiple-root fan reach long before the step test,
# finer than an ulp, can fire.  A collapse is kept only when all
# derivatives below order m vanish at the candidate within a tight scaled
# threshold.  That test asks whether the input is near a multiple root, not
# whether rounding could have made one, so close distinct roots do merge:
# with sites 0.2 apart, a partner 3e-5 away (chordal) merged in 3 to 59% of
# draws for n = 4 to 16, and one 1e-3 away in 3% at n = 16.  Degenerate
# clusters beyond multiplicity ~6 away from 0 and infinity exceed what
# double precision can certify and are left as fans.


def _horner_pair(desc: np.ndarray, z: complex) -> tuple[complex, complex]:
    p = 0.0 + 0.0j
    dp = 0.0 + 0.0j
    for c in desc:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _scaled_residual(asc: np.ndarray, z: complex, cmax: float) -> float:
    """|p(z)| / (max|c| * max(1, |z|)^deg), evaluated in the stable chart;
    ``cmax`` is max|c| > 0, computed once per polynomial by the caller."""
    if abs(z) <= 1.0:
        val, _ = _horner_pair(asc[::-1], z)
    else:
        # reversed polynomial at 1/z absorbs the max(1,|z|)^deg factor
        val, _ = _horner_pair(asc, 1.0 / z)
    return abs(val) / cmax


def _newton_best(desc: np.ndarray, z: complex, cap: int) -> complex:
    p, dp = _horner_pair(desc, z)
    best, best_val = z, abs(p)
    cur = z
    stalls = 0
    for _ in range(cap):
        if p == 0:
            return cur
        if dp == 0:
            break
        step = p / dp
        cur = cur - step
        p, dp = _horner_pair(desc, cur)
        if abs(p) < best_val:
            best, best_val = cur, abs(p)
            stalls = 0
        else:
            stalls += 1
        if abs(step) <= 1e-16 * (1.0 + abs(cur)) or stalls == _POLISH_STALLS:
            break
    return best


def _polish_root(asc: np.ndarray, z: complex) -> complex:
    if abs(z) <= 1.0:
        return _newton_best(asc[::-1], z, POLISH_MAX_ITER)
    w = _newton_best(asc, 1.0 / z, POLISH_MAX_ITER)
    if w == 0:
        return z
    return 1.0 / w


def _derivative(asc: np.ndarray) -> np.ndarray:
    if len(asc) <= 1:
        return np.zeros(1, dtype=complex)
    return asc[1:] * np.arange(1, len(asc), dtype=float)


def _validate_multiple(asc: np.ndarray, z: complex, mult: int) -> bool:
    d = asc
    for _ in range(mult):
        cmax = float(np.max(np.abs(d)))
        if cmax == 0.0:
            return False
        if _scaled_residual(d, z, cmax) > _MULTIPLE_VALIDATE_RTOL:
            return False
        d = _derivative(d)
    return True


def _split_cluster(pts: list[complex]) -> tuple[list[complex], list[complex]]:
    # break the cluster at the longest edge of its minimum spanning tree
    count = len(pts)
    dist = chordal_distance_matrix(pts).tolist()
    in_tree = [False] * count
    in_tree[0] = True
    best_dist = list(dist[0])
    best_from = [0] * count
    edges = []
    for _ in range(count - 1):
        j = min(
            (j for j in range(count) if not in_tree[j]),
            key=lambda j: best_dist[j],
        )
        edges.append((best_from[j], j, best_dist[j]))
        in_tree[j] = True
        for k in range(count):
            if not in_tree[k] and dist[j][k] < best_dist[k]:
                best_dist[k] = dist[j][k]
                best_from[k] = j
    cut = max(range(len(edges)), key=lambda i: edges[i][2])
    adj: dict[int, list[int]] = {i: [] for i in range(count)}
    for i, (u, v, _) in enumerate(edges):
        if i != cut:
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    left = [pts[i] for i in range(count) if i in seen]
    right = [pts[i] for i in range(count) if i not in seen]
    return left, right


def _refine_cluster(asc: np.ndarray, pts: list[complex]) -> list[complex]:
    mult = len(pts)
    if mult == 1:
        return pts
    if max(abs(p) for p in pts) > 1e6:
        return pts
    d = asc
    for _ in range(mult - 1):
        d = _derivative(d)
    if len(d) >= 2 and float(np.max(np.abs(d))) > 0.0:
        center = sum(pts) / mult
        z = _polish_root(d, center)
        diameter = float(chordal_distance_matrix(pts).max())
        if (
            chordal_distance(z, center) <= 10.0 * diameter + 1e-3
            and _validate_multiple(asc, z, mult)
        ):
            return [z] * mult
    if mult == 2:
        return pts
    left, right = _split_cluster(pts)
    return _refine_cluster(asc, left) + _refine_cluster(asc, right)


def _sharpen_roots(asc: np.ndarray, roots: np.ndarray) -> np.ndarray:
    if len(roots) < 2:
        return roots
    groups = single_linkage(chordal_distance_matrix(roots) <= _SHARPEN_TOL)
    out: list[complex] = []
    for group in groups:
        out.extend(_refine_cluster(asc, [complex(roots[i]) for i in group]))
    return np.array(out, dtype=complex)


def majorana_roots(s: SymmetricState) -> RootMultiset:
    """Sphere points of a state as the multiset of its polynomial roots.

    The multiplicity at infinity equals the polynomial's degree drop: the
    number of trailing Dicke amplitudes at most ``TRUNCATION_RTOL`` times the
    largest one.  The amplitudes are judged rather than the coefficients,
    whose binomial weights (up to sqrt(binom(n, n/2)), 1.3e9 at n = 64)
    would hide a small but genuine leading coefficient.  Each root is
    polished by Newton steps until |p| stops decreasing, and fans of a
    multiple root are collapsed where the derivatives certify it.  Raises
    :class:`~majsphere.errors.NumericalError` when any returned root fails
    the scaled residual bound after polishing.
    """
    n = s.n
    asc = majorana_polynomial(s)
    amps = np.abs(s.amps)
    deg = int(np.nonzero(amps > TRUNCATION_RTOL * amps.max())[0][-1])
    if deg == 0:
        return RootMultiset(n, (), n)
    work = asc[: deg + 1]
    try:
        raw = np.roots(work[::-1])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"companion eigenvalue solve failed: {exc}") from exc
    polished = np.array([_polish_root(work, complex(z)) for z in raw], dtype=complex)
    refined = _sharpen_roots(work, polished)
    cmax = float(np.max(np.abs(work)))
    worst = max(_scaled_residual(work, complex(z), cmax) for z in refined)
    if worst > RESIDUAL_RTOL:
        raise NumericalError(
            f"root polishing stalled at scaled residual {worst:.3e} "
            f"(bound {RESIDUAL_RTOL:.1e}, cap {POLISH_MAX_ITER} steps)"
        )
    return RootMultiset(n, tuple(complex(z) for z in refined), n - deg)


def _state_from_points(n: int, points) -> SymmetricState:
    """State whose polynomial is the product of y*w - x over the points'
    homogeneous pairs (x, y); a point at infinity gives a constant factor,
    and so one unit of degree drop.  Each factor is scaled by the power of
    two that puts its larger coefficient in [1, 2): that is exact, so the
    product keeps the digits of the monic one, and far roots cannot make
    it overflow.  The state constructor normalizes and fixes the phase."""
    x, y = homogeneous(points)
    scale = np.ldexp(1.0, 1 - np.frexp(np.maximum(np.abs(x), np.abs(y)))[1])
    desc = np.ones(1, dtype=complex)
    # descending coefficients, as in the monic [1, -z]: the other order rounds differently
    for factor in np.stack([y * scale, -x * scale], axis=1):
        desc = np.convolve(desc, factor)
    signs, weights = _dicke_weights(n)
    return SymmetricState(signs * desc[::-1] / weights)


def state_from_roots(r: RootMultiset) -> SymmetricState:
    """State whose polynomial has exactly the given root multiset."""
    return _state_from_points(r.n, r.points())


def apply_symmetric(m: MoebiusMap, s: SymmetricState) -> SymmetricState:
    """State obtained by moving every sphere point of s with the map m.

    This is the same state (up to scale and phase) as applying the matrix of
    m to each qubit of the expanded state vector.
    """
    # in the order a RootMultiset keeps: the product's rounding depends on it
    images = sorted((m(p) for p in majorana_roots(s).points()), key=point_sort_key)
    return _state_from_points(s.n, images)


# --- JSON documents ---------------------------------------------------------


def state_to_doc(s: SymmetricState) -> dict:
    """JSON document {"n": int, "dicke": [[re, im] x (n+1)]}."""
    return {"n": s.n, "dicke": [complex_pair(a) for a in s.amps]}


def state_from_doc(doc) -> SymmetricState:
    if not isinstance(doc, dict) or "n" not in doc or "dicke" not in doc:
        raise DomainError('state document must be an object with "n" and "dicke"')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError('"n" must be an integer >= 1')
    entries = doc["dicke"]
    if not isinstance(entries, list) or len(entries) != n + 1:
        raise DomainError(f'"dicke" must list exactly n+1 = {n + 1} amplitude pairs')
    return SymmetricState(parse_pairs(entries, "amplitudes"))


def roots_to_doc(r: RootMultiset) -> dict:
    """JSON document {"n": int, "roots": [[re, im] x m], "at_infinity": int}."""
    return {
        "n": r.n,
        "roots": [complex_pair(z) for z in r.finite_roots],
        "at_infinity": r.infinity_count,
    }


def roots_from_doc(doc) -> RootMultiset:
    if not isinstance(doc, dict) or not {"n", "roots", "at_infinity"} <= set(doc):
        raise DomainError(
            'root document must be an object with "n", "roots" and "at_infinity"'
        )
    n = doc["n"]
    inf_count = doc["at_infinity"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError('"n" must be an integer >= 1')
    if not isinstance(inf_count, int) or isinstance(inf_count, bool) or inf_count < 0:
        raise DomainError('"at_infinity" must be a nonnegative integer')
    entries = doc["roots"]
    if not isinstance(entries, list):
        raise DomainError('"roots" must be a list of [re, im] pairs')
    roots = parse_pairs(entries, "roots")
    if len(roots) + inf_count != n:
        raise DomainError('"roots" length plus "at_infinity" must equal "n"')
    return RootMultiset(n, tuple(roots), inf_count)
