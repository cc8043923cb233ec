"""Degeneracy configurations and the LOCC/SLOCC equivalence deciders.

Two symmetric states are SLOCC-equivalent exactly when some Moebius map
carries the sphere points of one onto the other (multiplicities included);
they are LOCC-equivalent when that map can be chosen as a sphere rotation.
A Moebius map is fixed by the images of three points, and any such map must
send the first three serialized sites of one state to three distinct sites
of the other with the same multiplicities.  The deciders therefore build one
candidate map per multiplicity-compatible ordered target triple, at most
d(d-1)(d-2) of them for d sites, and accept the first that carries the full
clustered multiset, which keeps the decision exhaustive.  The candidates are
screened as arrays, in blocks of bounded size, before the exact per-map
check.  When sites sit at the edge of the tolerance, a site assignment the
screen keeps also tries the maps through the other source triples.  The
degeneracy configuration (the sorted multiplicity partition) is invariant
under all of these operations and provides the cheap first filter.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .moebius import (
    MoebiusMap,
    _homog,
    from_three_points,
    is_projective_unitary,
)
from .plane import (
    INFINITY,
    TAU,
    ExtendedComplex,
    chordal_distance,
    chordal_distance_matrix,
    point_xyz,
    single_linkage,
    sphere_from_xyz,
    from_sphere,
)
from .symstate import RootMultiset, SymmetricState, majorana_roots

#: default chordal tolerance for clustering and multiset matching
DEFAULT_TOL = 1e-7

#: rounding allowance of the candidate screen, per unit of condition number
_ROUNDING_SLACK = 1e-12

#: distances the candidate screen holds at once, one per map and target site
_SCREEN_ENTRIES = 1 << 18


@dataclass(frozen=True)
class DegeneracyConfiguration:
    """Sorted multiplicity partition of coinciding sphere points."""

    partition: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.partition)
        if len(parts) < 1 or any(p < 1 for p in parts):
            raise DomainError("partition entries must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise DomainError("partition must be sorted in descending order")
        object.__setattr__(self, "partition", parts)

    @property
    def diversity(self) -> int:
        return len(self.partition)

    @property
    def n(self) -> int:
        return sum(self.partition)


@dataclass(frozen=True)
class ClusteredRoots:
    """Distinct point sites of a root multiset with their multiplicities."""

    sites: tuple[tuple[ExtendedComplex, int], ...]

    @property
    def n(self) -> int:
        return sum(mult for _, mult in self.sites)

    def points(self) -> tuple[ExtendedComplex, ...]:
        return tuple(site for site, _ in self.sites)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(mult for _, mult in self.sites)


@dataclass(frozen=True)
class EquivalenceWitness:
    """A Moebius map carrying one state's points onto another's; ``kind`` is
    "locc" when the map is a sphere rotation, else "slocc"."""

    map: MoebiusMap
    kind: str


def _site_sort_key(site: ExtendedComplex):
    if site.is_infinite:
        return (1, 0.0, 0.0)
    return (0, abs(site.value), cmath.phase(site.value) % TAU)


def _cluster_representative(members: list[ExtendedComplex]) -> ExtendedComplex:
    if any(p.is_infinite for p in members):
        return INFINITY
    first = members[0]
    if all(p == first for p in members):
        return first
    xs = [point_xyz(p) for p in members]
    cx = sum(v[0] for v in xs) / len(xs)
    cy = sum(v[1] for v in xs) / len(xs)
    cz = sum(v[2] for v in xs) / len(xs)
    if math.sqrt(cx * cx + cy * cy + cz * cz) < 1e-9:
        return first
    return from_sphere(sphere_from_xyz(cx, cy, cz))


def degeneracy_configuration(
    r: RootMultiset, tol: float = DEFAULT_TOL
) -> tuple[DegeneracyConfiguration, ClusteredRoots]:
    """Cluster the root multiset into distinct sites (single linkage in the
    chordal metric) and read off the multiplicity partition."""
    if not (tol > 0.0):
        raise DomainError("clustering tolerance must be positive")
    points = r.points()
    groups = single_linkage(chordal_distance_matrix(points) <= tol)
    sites = []
    for group in groups:
        members = [points[i] for i in group]
        sites.append((_cluster_representative(members), len(group)))
    sites.sort(key=lambda pair: _site_sort_key(pair[0]))
    partition = tuple(sorted((mult for _, mult in sites), reverse=True))
    return DegeneracyConfiguration(partition), ClusteredRoots(tuple(sites))


# --- witness construction helpers -------------------------------------------


def _rotation_to_north(p: ExtendedComplex) -> MoebiusMap:
    """A sphere rotation taking the given point to infinity (the north pole)."""
    if p.is_infinite:
        return MoebiusMap.identity()
    z = p.value
    beta = 1.0 / math.hypot(1.0, abs(z))
    alpha = -beta * z.conjugate()
    return MoebiusMap(alpha, -beta, beta, alpha.conjugate())


def _rotation_between(p: ExtendedComplex, q: ExtendedComplex) -> MoebiusMap:
    return _rotation_to_north(q).inverse().compose(_rotation_to_north(p))


def _standard_position(
    anchor: ExtendedComplex, other: ExtendedComplex
) -> tuple[MoebiusMap, float]:
    """Rotation sending anchor to the north pole and the other site onto the
    nonnegative real half-plane; returns it with the other site's radius."""
    north = _rotation_to_north(anchor)
    image = north(other)
    if image.is_infinite:
        raise DomainError("coincident sites cannot be separated")
    w = image.value
    if abs(w) == 0.0:
        return north, 0.0
    phase = cmath.exp(-1j * cmath.phase(w))
    spin = MoebiusMap(phase, 0.0, 0.0, 1.0)
    return spin.compose(north), abs(w)


def _two_site_map(anchor: ExtendedComplex, other: ExtendedComplex) -> MoebiusMap:
    """Any Moebius map sending anchor to infinity and the other site to 0."""
    if anchor.is_infinite:
        return MoebiusMap.translation(-other.value)
    if other.is_infinite:
        return MoebiusMap(0.0, 1.0, 1.0, -anchor.value)
    return MoebiusMap(1.0, -other.value, 1.0, -anchor.value)


def _maps_multiset(
    m: MoebiusMap, sites1: ClusteredRoots, sites2: ClusteredRoots, tol: float
) -> bool:
    """Whether m carries sites1 bijectively onto sites2 with matching
    multiplicities: a perfect matching, found by augmenting paths, over the
    same-multiplicity site pairs that m brings within ``tol``."""
    targets = sites2.sites
    edges = []
    for site, mult in sites1.sites:
        image = m(site)
        edges.append([
            j
            for j, (target, target_mult) in enumerate(targets)
            if target_mult == mult and chordal_distance(image, target) <= tol
        ])
    owner = [-1] * len(targets)

    def augment(i: int, seen: list[bool]) -> bool:
        for j in edges[i]:
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, [False] * len(targets)) for i in range(len(edges)))


def _target_triples(sites1: ClusteredRoots, sites2: ClusteredRoots, rows: int):
    """Ordered triples of sites2 indices whose multiplicities match those of
    the first three serialized sites of sites1, in lexicographic order, as
    int arrays of ``rows`` triples (the last may hold fewer)."""
    mults1 = sites1.multiplicities()[:3]
    mults2 = np.array(sites2.multiplicities())
    first, second, third = (np.flatnonzero(mults2 == m) for m in mults1)
    pairs = np.stack(np.meshgrid(second, third, indexing="ij"), axis=-1).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    block = np.empty((0, 3), dtype=int)
    for i in first:
        tail = pairs[(pairs != i).all(axis=1)]
        block = np.concatenate([block, np.column_stack([np.full(len(tail), i), tail])])
        while len(block) >= rows:
            yield block[:rows]
            block = block[rows:]
    if len(block):
        yield block


def _homogeneous(points) -> np.ndarray:
    """Unit homogeneous coordinates of points as a 2xN array."""
    h = np.array([_homog(p) for p in points], dtype=complex).T
    return h / np.hypot(np.abs(h[0]), np.abs(h[1]))


def _to_zero_one_inf_matrices(h: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Kx2x2 matrices of the maps sending each triple of columns of h to
    (0, 1, inf), from the same homogeneous minors as the scalar
    construction in :mod:`moebius`."""
    (x1, x2, x3), (y1, y2, y3) = h[:, triples.T]
    d23 = x2 * y3 - x3 * y2
    d21 = x2 * y1 - x1 * y2
    return np.stack([y1 * d23, -x1 * d23, y3 * d21, -x3 * d21], axis=-1).reshape(-1, 2, 2)


def _gram(mats: np.ndarray) -> np.ndarray:
    """M^dag M of each 2x2 matrix M scaled to determinant one."""
    det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    return np.conj(np.swapaxes(mats, 1, 2)) @ mats / np.abs(det)[:, None, None]


def _condition(mats: np.ndarray) -> np.ndarray:
    """Condition number |M|_F^2 / |det M| of each 2x2 matrix."""
    return np.trace(_gram(mats), axis1=1, axis2=2).real


def _screen(
    h1: np.ndarray,
    h2: np.ndarray,
    fwd: np.ndarray,
    triples: np.ndarray,
    same_mult: np.ndarray,
    tol: float,
    unitary: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Screen the maps sending the first three columns of h1 to each target
    triple of columns of h2 (fwd sends the former to (0, 1, inf)).

    Returns the indices of the kept maps and, per kept map, the nearest
    same-multiplicity target of every site.  A map is kept when every site
    lands within ``near`` of such a target (and, for LOCC, the map is within
    ``near`` of a rotation).  Sites are measured one at a time, starting
    with the fourth, against the maps still kept: the fourth alone rules out
    almost every map, and memory stays at one distance per map and target.
    """
    back = _to_zero_one_inf_matrices(h2, triples)
    # the adjugate inverts each target map up to a scale the distances ignore
    back_inv = np.stack(
        [back[:, 1, 1], -back[:, 0, 1], -back[:, 1, 0], back[:, 0, 0]], axis=-1
    ).reshape(-1, 2, 2)
    maps = back_inv @ fwd
    cond = _condition(fwd) * _condition(back)
    near = (2.0 + cond) * tol + _ROUNDING_SLACK * cond
    rows = np.arange(len(maps))
    if unitary:
        rows = np.flatnonzero(np.abs(_gram(maps) - np.eye(2)).max(axis=(1, 2)) <= near)
    nearest = np.empty((len(maps), len(same_mult)), dtype=int)
    for i in [*range(3, len(same_mult)), 0, 1, 2]:
        x, y = (maps[rows] @ h1[:, i]).T
        cross = np.where(same_mult[i], np.abs(x[:, None] * h2[1] - y[:, None] * h2[0]), np.inf)
        dist = 2.0 * cross / np.hypot(np.abs(x), np.abs(y))[:, None]
        nearest[rows, i] = dist.argmin(axis=1)
        rows = rows[dist[np.arange(len(rows)), nearest[rows, i]] <= near[rows]]
    return rows, nearest[rows]


def _candidate_maps(
    sites1: ClusteredRoots, sites2: ClusteredRoots, tol: float, unitary: bool
):
    """Candidate witnesses in the order of the exhaustive search over all
    ordered source and target triples (source triple first, both
    lexicographic), restricted to the site assignments a witness can have.

    A witness assigns each site of sites1 to a site of sites2 of the same
    multiplicity, so it shows up among the maps sending the first three
    sites to the multiplicity-compatible target triples.  Those maps are
    screened as arrays, a block of target triples at a time so that memory
    stays bounded for many sites; a map is kept when it puts every site
    within ``near`` of a target of its multiplicity (and, for LOCC, is
    within ``near`` of a rotation).  ``near`` is 2*tol plus tol times the
    interpolation's condition number, plus rounding: a witness through
    another source triple pins the first three sites only within tol.  The
    kept maps are tried as each block is screened, which finds the witness
    unless sites sit at the edge of the tolerance, so the search costs
    O(d^3) unless a kept map fails.  Then the nearest-target assignment of
    each kept map names one target triple per other source triple, and
    those maps are tried in order.
    """
    points1, points2 = sites1.points(), sites2.points()
    h1, h2 = _homogeneous(points1), _homogeneous(points2)
    fwd = _to_zero_one_inf_matrices(h1, np.array([[0, 1, 2]]))
    same_mult = np.equal.outer(sites1.multiplicities(), sites2.multiplicities())
    assignments = set()
    for chunk in _target_triples(sites1, sites2, _SCREEN_ENTRIES // len(points2)):
        kept, assigned = _screen(h1, h2, fwd, chunk, same_mult, tol, unitary)
        assignments.update(map(tuple, assigned.tolist()))
        for t2 in chunk[kept].tolist():
            try:
                yield from_three_points(*points1[:3], *(points2[j] for j in t2))
            except DomainError:
                continue
    if not assignments:
        return
    for t1 in itertools.islice(itertools.permutations(range(len(points1)), 3), 1, None):
        source = tuple(points1[i] for i in t1)
        for t2 in sorted({tuple(a[i] for i in t1) for a in assignments}):
            try:
                yield from_three_points(*source, *(points2[j] for j in t2))
            except DomainError:
                continue


def _witness_map(
    sites1: ClusteredRoots, sites2: ClusteredRoots, tol: float, unitary: bool
) -> Optional[MoebiusMap]:
    """First candidate map that is a rotation (when ``unitary``) and carries
    sites1 onto sites2, or None."""
    for candidate in _candidate_maps(sites1, sites2, tol, unitary):
        if unitary and is_projective_unitary(candidate, tol) is None:
            continue
        if _maps_multiset(candidate, sites1, sites2, tol):
            return candidate
    return None


def _low_diversity_witness(
    sites1: ClusteredRoots, sites2: ClusteredRoots, tol: float, unitary: bool
) -> Optional[MoebiusMap]:
    d = len(sites1.sites)
    if d == 1:
        return _rotation_between(sites1.sites[0][0], sites2.sites[0][0])
    # d == 2: anchor the higher-multiplicity site on both sides
    def ordered(sites: ClusteredRoots):
        pairs = sorted(sites.sites, key=lambda p: -p[1])
        return pairs[0][0], pairs[1][0]

    a1, o1 = ordered(sites1)
    a2, o2 = ordered(sites2)
    if unitary:
        # rotations exist exactly when the site separations agree; the
        # standard position fixes the residual spin about the anchor axis
        m1, r1 = _standard_position(a1, o1)
        m2, r2 = _standard_position(a2, o2)
        if chordal_distance(ExtendedComplex(r1), ExtendedComplex(r2)) > tol:
            return None
        return m2.inverse().compose(m1)
    m1 = _two_site_map(a1, o1)
    m2 = _two_site_map(a2, o2)
    return m2.inverse().compose(m1)


def _decide(
    s1: SymmetricState, s2: SymmetricState, tol: float, unitary: bool
) -> Optional[EquivalenceWitness]:
    if s1.n != s2.n:
        raise DomainError("states must have the same qubit count")
    kind = "locc" if unitary else "slocc"
    dc1, sites1 = degeneracy_configuration(majorana_roots(s1), tol)
    dc2, sites2 = degeneracy_configuration(majorana_roots(s2), tol)
    if dc1.partition != dc2.partition:
        return None
    d = dc1.diversity
    if d <= 2:
        witness = _low_diversity_witness(sites1, sites2, tol, unitary)
        return None if witness is None else EquivalenceWitness(witness, kind)
    if d == 3 and not unitary:
        # a single class: any multiplicity-respecting site assignment works
        target = next(_target_triples(sites1, sites2, 1))[0]
        points2 = sites2.points()
        try:
            witness = from_three_points(*sites1.points(), *(points2[j] for j in target))
        except DomainError:
            return None
        return EquivalenceWitness(witness, kind)
    witness = _witness_map(sites1, sites2, tol, unitary)
    return None if witness is None else EquivalenceWitness(witness, kind)


def slocc_equivalent(
    s1: SymmetricState, s2: SymmetricState, tol: float = DEFAULT_TOL
) -> Optional[EquivalenceWitness]:
    """Moebius witness that s1 and s2 lie in the same SLOCC class, or None.

    Diversity up to three is a single class per partition, so a witness is
    built directly; beyond that the first three serialized sites of s1 are
    sent to every multiplicity-compatible ordered target triple of s2 and the
    first map carrying the whole multiset is accepted.
    """
    return _decide(s1, s2, tol, unitary=False)


def locc_equivalent(
    s1: SymmetricState, s2: SymmetricState, tol: float = DEFAULT_TOL
) -> Optional[EquivalenceWitness]:
    """Rotation witness that s1 and s2 are LOCC-equivalent, or None.

    Same fixed-triple enumeration as :func:`slocc_equivalent` (three sites
    included) but candidates must also pass the projective-unitarity test;
    one- and two-site configurations are handled by an explicit rotation
    construction.
    """
    return _decide(s1, s2, tol, unitary=True)


# --- cross-ratio and circle certificates -------------------------------------


def cross_ratio_fingerprint(
    r: RootMultiset, tol: float = DEFAULT_TOL
) -> tuple[complex, ...]:
    """Cross-ratios of the four distinct sites over all 24 orderings.

    Defined for diversity exactly four; the multiset is returned sorted by
    (real, imaginary) part.  Two diversity-four states can be
    SLOCC-equivalent only if their fingerprints intersect.
    """
    from .moebius import cross_ratio

    _, clustered = degeneracy_configuration(r, tol)
    if len(clustered.sites) != 4:
        raise DomainError("cross-ratio fingerprint needs exactly 4 distinct sites")
    sites = clustered.points()
    values = []
    for perm in itertools.permutations(range(4)):
        value = cross_ratio(*(sites[i] for i in perm))
        if value.is_infinite:
            raise DomainError("degenerate site configuration")
        values.append(value.value)
    return tuple(sorted(values, key=lambda z: (z.real, z.imag)))


def fingerprints_intersect(
    f1: tuple[complex, ...], f2: tuple[complex, ...], tol: float = 1e-7
) -> bool:
    return any(abs(a - b) <= tol * (1.0 + abs(a)) for a in f1 for b in f2)


@dataclass(frozen=True)
class CircleSignature:
    """Census of circles through site triples: for every triple the number
    of sites on its circle and the population of the smaller spherical cap."""

    circles: tuple[tuple[tuple[ExtendedComplex, ExtendedComplex, ExtendedComplex], int, int], ...]

    def on_circle_counts(self) -> tuple[int, ...]:
        return tuple(sorted(count for _, count, _ in self.circles))


def circle_signature(r: RootMultiset, tol: float = DEFAULT_TOL) -> CircleSignature:
    """Circle census of a root multiset's distinct sites.

    Each site triple spans a plane; its circle is the plane's intersection
    with the sphere.  Sites within ``tol`` of the plane count as on the
    circle, the rest populate the two caps.
    """
    _, clustered = degeneracy_configuration(r, tol)
    sites = clustered.points()
    xyz = [point_xyz(p) for p in sites]
    records = []
    for (i, j, k) in itertools.combinations(range(len(sites)), 3):
        p1, p2, p3 = xyz[i], xyz[j], xyz[k]
        u = tuple(p2[t] - p1[t] for t in range(3))
        v = tuple(p3[t] - p1[t] for t in range(3))
        normal = (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
        length = math.sqrt(sum(c * c for c in normal))
        if length == 0.0:
            continue
        normal = tuple(c / length for c in normal)
        offset = sum(normal[t] * p1[t] for t in range(3))
        on_count = 0
        above = 0
        below = 0
        for x in xyz:
            gap = sum(normal[t] * x[t] for t in range(3)) - offset
            if abs(gap) <= tol:
                on_count += 1
            elif gap > 0:
                above += 1
            else:
                below += 1
        records.append(((sites[i], sites[j], sites[k]), on_count, min(above, below)))
    return CircleSignature(tuple(records))


def cocircularity_witness(
    r1: RootMultiset, r2: RootMultiset, tol: float = DEFAULT_TOL
) -> Optional[tuple[CircleSignature, CircleSignature]]:
    """Pair of circle censuses certifying SLOCC-inequivalence, or None.

    Moebius maps carry circles to circles and sites to sites, so the multiset
    of on-circle counts over all site triples is an invariant; the pair of
    signatures is returned exactly when those multisets differ.  A match is
    inconclusive.
    """
    if r1.n != r2.n:
        raise DomainError("root multisets must have the same total multiplicity")
    sig1 = circle_signature(r1, tol)
    sig2 = circle_signature(r2, tol)
    if sig1.on_circle_counts() != sig2.on_circle_counts():
        return sig1, sig2
    return None
