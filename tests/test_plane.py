import cmath
import math

import numpy as np
import pytest

from majsphere import (
    INFINITY,
    DomainError,
    ExtendedComplex,
    MoebiusMap,
    RootMultiset,
    SpherePoint,
    as_point,
    chordal_distance,
    classify_map,
    degeneracy_configuration,
    from_sphere,
    map_from_doc,
    roots_from_doc,
    state_from_doc,
    to_sphere,
)
from majsphere.plane import (
    chordal_distance_matrix,
    from_homogeneous,
    homogeneous_pair,
    single_linkage,
)


def test_homogeneous_pair_and_back():
    assert homogeneous_pair(INFINITY) == (1.0, 0.0)
    assert homogeneous_pair(0) == (0.0, 1.0)
    assert homogeneous_pair(ExtendedComplex(2 - 1j)) == (2 - 1j, 1.0)
    with pytest.raises(DomainError):
        homogeneous_pair(complex("inf"))
    assert from_homogeneous(1.0, 0.0) is INFINITY
    assert from_homogeneous(0.0, 1.0) == 0
    assert from_homogeneous(3j, 2.0) == 1.5j
    # a quotient that overflows is the point at infinity
    assert from_homogeneous(1e300, 1e-300) is INFINITY
    assert from_homogeneous(1e300 + 1e300j, 1e-300) is INFINITY


def test_infinity_singleton_behaviour():
    assert INFINITY.is_infinite
    with pytest.raises(DomainError):
        INFINITY.value
    assert not ExtendedComplex(1 + 2j).is_infinite
    assert complex(ExtendedComplex(1 + 2j)) == 1 + 2j
    assert ExtendedComplex(3) == 3
    assert ExtendedComplex(3) != INFINITY


def test_finite_points_reject_nonfinite_parts():
    with pytest.raises(DomainError):
        ExtendedComplex(complex(float("inf"), 0.0))
    with pytest.raises(DomainError):
        ExtendedComplex(complex(0.0, float("nan")))


def test_chordal_metric_reference_values():
    assert chordal_distance(INFINITY, INFINITY) == 0.0
    assert chordal_distance(0, INFINITY) == pytest.approx(2.0)
    assert chordal_distance(1, INFINITY) == pytest.approx(math.sqrt(2.0))
    # antipodal pair 1 and -1 sits at distance 2
    assert chordal_distance(1, -1) == pytest.approx(2.0)
    assert chordal_distance(2 + 1j, 2 + 1j) == 0.0
    # symmetry
    assert chordal_distance(0.3 + 1j, 2 - 0.5j) == chordal_distance(2 - 0.5j, 0.3 + 1j)


def test_chordal_metric_survives_huge_moduli():
    assert chordal_distance(1e200, INFINITY) < 1e-150
    assert chordal_distance(1e200, -1e200) <= 2.0


def test_sphere_convention_poles():
    # the infinite point projects to the north pole, zero to the south pole
    assert to_sphere(INFINITY) == SpherePoint(0.0, 0.0)
    assert to_sphere(0) == SpherePoint(math.pi, 0.0)
    assert from_sphere(SpherePoint(0.0, 0.0)).is_infinite
    assert from_sphere(SpherePoint(math.pi, 0.0)) == 0


def test_sphere_convention_equator():
    p = to_sphere(1)
    assert p.theta == pytest.approx(math.pi / 2)
    assert p.phi == pytest.approx(0.0)
    q = to_sphere(1j)
    assert q.phi == pytest.approx(3 * math.pi / 2)


def test_sphere_round_trip_off_poles():
    rng = np.random.default_rng(42)
    for _ in range(500):
        theta = rng.uniform(1e-3, math.pi - 1e-3)
        phi = rng.uniform(0.0, 2 * math.pi - 1e-9)
        sp = SpherePoint(theta, phi)
        back = to_sphere(from_sphere(sp))
        assert abs(back.theta - sp.theta) <= 1e-12
        assert abs(back.phi - sp.phi) % (2 * math.pi) <= 1e-12


def test_plane_round_trip():
    rng = np.random.default_rng(43)
    for _ in range(500):
        z = complex(rng.standard_normal(), rng.standard_normal()) * 3
        back = from_sphere(to_sphere(z))
        assert chordal_distance(z, back) <= 1e-12


def test_sphere_point_normalization():
    assert SpherePoint(0.0, 1.2345).phi == 0.0
    assert SpherePoint(math.pi, -2.0).phi == 0.0
    assert SpherePoint(1.0, 2 * math.pi + 0.5).phi == pytest.approx(0.5)
    with pytest.raises(DomainError):
        SpherePoint(-0.5, 0.0)
    with pytest.raises(DomainError):
        SpherePoint(math.pi + 0.5, 0.0)
    with pytest.raises(DomainError):
        SpherePoint(float("nan"), 0.0)


def test_as_point_coercion():
    assert as_point(INFINITY) is INFINITY
    assert as_point(2.0) == ExtendedComplex(2.0)
    assert cmath.isclose(as_point(1 - 1j).value, 1 - 1j)


def test_chordal_distance_matrix_matches_pairwise_distances():
    points = [INFINITY, 0, 1, -1, 2 + 1j, 1e200, INFINITY, 0.3 - 4j]
    dist = chordal_distance_matrix(points)
    assert dist.shape == (len(points), len(points))
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            assert dist[i, j] == pytest.approx(chordal_distance(p, q), rel=1e-15, abs=0.0)
    assert chordal_distance_matrix([]).shape == (0, 0)


def near_from_pairs(count, pairs):
    near = np.zeros((count, count), dtype=bool)
    for i, j in pairs:
        near[i, j] = near[j, i] = True
    return near


def test_single_linkage_follows_chains():
    # 0-5-3 and 1-4 are joined only through chains of near pairs
    near = near_from_pairs(6, [(0, 5), (3, 5), (4, 1)])
    assert single_linkage(near) == [[0, 3, 5], [1, 4], [2]]


def test_single_linkage_orders_groups_by_first_member():
    near = near_from_pairs(5, [(4, 2), (3, 1)])
    assert single_linkage(near) == [[0], [1, 3], [2, 4]]
    assert single_linkage(np.ones((4, 4), dtype=bool)) == [[0, 1, 2, 3]]


def test_single_linkage_small_inputs():
    assert single_linkage(np.zeros((0, 0), dtype=bool)) == []
    assert single_linkage(np.ones((1, 1), dtype=bool)) == [[0]]


def test_single_linkage_ignores_the_diagonal():
    assert single_linkage(np.eye(3, dtype=bool)) == [[0], [1], [2]]
    assert single_linkage(~np.eye(3, dtype=bool)) == [[0, 1, 2]]


# --- the shared [re, im] decoder and point order ------------------------------

BAD_PAIRS = {
    "bool": [True, 0.0],
    "three entries": [1.0, 0.0, 0.0],
    "string": "1+0j",
    "nested list": [[1.0], 0.0],
}


@pytest.mark.parametrize("bad", BAD_PAIRS.values(), ids=BAD_PAIRS.keys())
@pytest.mark.parametrize(
    "parse, doc, message",
    [
        (state_from_doc, lambda bad: {"n": 1, "dicke": [[1.0, 0.0], bad]},
         "amplitudes must be [re, im] number pairs"),
        (roots_from_doc, lambda bad: {"n": 2, "roots": [[0.5, 0.0], bad], "at_infinity": 0},
         "roots must be [re, im] number pairs"),
        (map_from_doc, lambda bad: {"matrix": [[1, 0], [0, 0], [0, 0], bad]},
         "matrix entries must be [re, im] number pairs"),
    ],
    ids=["state", "roots", "matrix"],
)
def test_malformed_pairs_are_rejected(parse, doc, message, bad):
    with pytest.raises(DomainError) as info:
        parse(doc(bad))
    assert str(info.value) == message


# finite before infinity, then by modulus, then by argument mod 2*pi (so -1j,
# at argument 3*pi/2, follows -1)
ORDERED = [0.5 + 0j, 1 + 0j, 1j, -1 + 0j, -1j, -2 + 0.5j, 3 - 0.1j]


def test_root_multisets_and_sites_share_the_point_order():
    shuffled = [ORDERED[i] for i in (4, 2, 6, 0, 5, 3, 1)]
    r = RootMultiset(len(ORDERED) + 1, tuple(shuffled), 1)
    assert list(r.finite_roots) == ORDERED
    assert r.points()[-1] is INFINITY
    _, clustered = degeneracy_configuration(r)
    assert clustered.points() == tuple(ExtendedComplex(z) for z in ORDERED) + (INFINITY,)


@pytest.mark.parametrize("first, second", [(0.5, -1j), (-1j, 0.5), (1j, -2), (-2, 1j)])
def test_fixed_points_share_the_point_order(first, second):
    # loxodromic map with the given fixed points: conjugate z -> (2+1j) z
    frame = MoebiusMap(first, second, 1.0, 1.0)  # sends 0 -> second, inf -> first
    m = frame.compose(MoebiusMap.scaling(2 + 1j)).compose(frame.inverse())
    fixed = classify_map(m).fixed_points
    expected = sorted([first, second], key=lambda z: (abs(z), cmath.phase(z) % (2 * math.pi)))
    assert len(fixed) == 2
    for got, want in zip(fixed, expected):
        assert chordal_distance(got, want) <= 1e-12


def test_fixed_point_at_infinity_comes_last():
    fixed = classify_map(MoebiusMap(2.0, -2.0, 0.0, 1.0)).fixed_points  # z -> 2z - 2
    assert fixed[1] is INFINITY and chordal_distance(fixed[0], 2.0) <= 1e-12
