import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from majsphere import (
    DomainError,
    INFINITY,
    ExtendedComplex,
    MoebiusMap,
    RootMultiset,
    SymmetricState,
    apply_symmetric,
    apply_tensor,
    chordal_distance,
    cocircularity_witness,
    cross_ratio_fingerprint,
    degeneracy_configuration,
    dicke,
    equal_up_to_scale,
    expand_full,
    fidelity,
    fingerprints_intersect,
    from_three_points,
    is_projective_unitary,
    locc_equivalent,
    majorana_roots,
    proj_equal,
    slocc_equivalent,
    state_from_roots,
)
from majsphere.canonical import family_state_4, param_to_t
from majsphere.classify import (
    ClusteredRoots,
    _maps_multiset,
    _site_sort_key,
    _target_triples,
    _witness_map,
)
from helpers import (
    OMEGA,
    random_moebius,
    random_rotation,
    random_state,
    separated_points,
    separated_root_multiset,
)

GHZ3 = SymmetricState([1.0, 0.0, 0.0, 1.0])

SQUARE_PYRAMID = RootMultiset(5, (1 + 0j, 1j, -1 + 0j, -1j), 1)
TRIGONAL_BIPYRAMID = RootMultiset(5, (0j, 1 + 0j, OMEGA, OMEGA**2), 1)


def all_partitions(n):
    def rec(rest, cap):
        if rest == 0:
            yield ()
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    return list(rec(n, n))


class TestDegeneracyConfiguration:
    def test_w_state(self):
        dc, clustered = degeneracy_configuration(majorana_roots(dicke(3, 1)))
        assert dc.partition == (2, 1)
        assert dc.diversity == 2
        assert clustered.multiplicities() == (1, 2)  # finite site first, infinity last

    def test_ghz(self):
        dc, _ = degeneracy_configuration(majorana_roots(GHZ3))
        assert dc.partition == (1, 1, 1)

    def test_separable(self):
        for n in (2, 5, 8):
            dc, clustered = degeneracy_configuration(majorana_roots(dicke(n, 0)))
            assert dc.partition == (n,)
            assert clustered.sites[0][0].is_infinite

    def test_invalid_tolerance(self):
        with pytest.raises(DomainError):
            degeneracy_configuration(majorana_roots(GHZ3), 0.0)

    def test_partition_type_validation(self):
        from majsphere import DegeneracyConfiguration

        with pytest.raises(DomainError):
            DegeneracyConfiguration((1, 2))
        with pytest.raises(DomainError):
            DegeneracyConfiguration((0,))

    def test_invariance_under_maps(self):
        rng = np.random.default_rng(20)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            s = state_from_roots(separated_root_multiset(rng, n, 0.1, allow_infinity=True))
            m = random_moebius(rng)
            dc1, _ = degeneracy_configuration(majorana_roots(s))
            dc2, _ = degeneracy_configuration(majorana_roots(apply_symmetric(m, s)))
            assert dc1.partition == dc2.partition

    def test_partition_census(self):
        base = [INFINITY, 0, 1, -1, 2 + 2j]
        for n in (4, 5):
            seen = set()
            for part in all_partitions(n):
                finite = []
                inf_count = 0
                for mult, site in zip(part, base):
                    if site is INFINITY:
                        inf_count += mult
                    else:
                        finite.extend([complex(site)] * mult)
                s = state_from_roots(RootMultiset(n, tuple(finite), inf_count))
                dc, _ = degeneracy_configuration(majorana_roots(s))
                assert dc.partition == part
                seen.add(dc.partition)
            assert len(seen) == {4: 5, 5: 7}[n]


class TestSloccDecider:
    def test_ghz_vs_ghz_like(self):
        ghz_like = SymmetricState([1.0, 0.0, 0.0, 2.0])
        witness = slocc_equivalent(GHZ3, ghz_like)
        assert witness is not None and witness.kind == "slocc"
        assert fidelity(apply_symmetric(witness.map, GHZ3), ghz_like) >= 1 - 1e-8

    def test_ghz_vs_w_partitions_differ(self):
        assert slocc_equivalent(GHZ3, dicke(3, 1)) is None

    def test_mismatched_n_rejected(self):
        with pytest.raises(DomainError):
            slocc_equivalent(GHZ3, dicke(4, 1))

    def test_witness_recovers_the_map(self):
        # the witness equals m only once the configuration has a trivial
        # stabilizer: 3 sites admit a 6-element one and any 4 points are
        # stabilized by the Klein group of double transpositions (they
        # preserve the cross-ratio), so equality holds from 5 sites up
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(3, 7))
            s = state_from_roots(separated_root_multiset(rng, n, 0.15))
            m = random_moebius(rng)
            target = apply_symmetric(m, s)
            witness = slocc_equivalent(s, target)
            assert witness is not None
            assert fidelity(apply_symmetric(witness.map, s), target) >= 1 - 1e-8
            if n >= 5:
                assert proj_equal(witness.map, m, 1e-6)

    def test_low_diversity_always_equivalent(self):
        # one and two sites: same partition means same class
        rng = np.random.default_rng(22)
        pairs = [
            (dicke(4, 0), state_from_roots(RootMultiset(4, (2 + 1j,) * 4, 0))),
            (dicke(3, 1), state_from_roots(RootMultiset(3, (1 + 0j, 1 + 0j, -0.3j), 0))),
            (dicke(5, 2), state_from_roots(RootMultiset(5, (0.5 + 0.5j,) * 2 + (-2 + 1j,) * 3, 0))),
        ]
        for s1, s2 in pairs:
            witness = slocc_equivalent(s1, s2)
            assert witness is not None
            assert fidelity(apply_symmetric(witness.map, s1), s2) >= 1 - 1e-8

    def test_decision_symmetry_and_inverse_witness(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            s1 = state_from_roots(separated_root_multiset(rng, n, 0.15))
            s2 = apply_symmetric(random_moebius(rng), s1)
            w12 = slocc_equivalent(s1, s2)
            w21 = slocc_equivalent(s2, s1)
            assert (w12 is None) == (w21 is None)
            assert proj_equal(w12.map.inverse(), w21.map, 1e-6)
        # and for an inequivalent pair
        s1 = family_state_4(param_to_t(0.5, 0.3))
        s2 = family_state_4(param_to_t(1.1, 0.9))
        assert slocc_equivalent(s1, s2) is None
        assert slocc_equivalent(s2, s1) is None


class TestLoccDecider:
    def test_ghz_vs_rotated_triangle(self):
        other = SymmetricState([1.0, 0.0, math.sqrt(3.0), 0.0])
        witness = locc_equivalent(GHZ3, other)
        assert witness is not None and witness.kind == "locc"
        assert is_projective_unitary(witness.map, 1e-7) is not None
        assert fidelity(apply_symmetric(witness.map, GHZ3), other) >= 1 - 1e-8

    def test_unbalanced_ghz_like_is_not_locc(self):
        ghz_like = SymmetricState([1.0, 0.0, 0.0, 2.0])
        assert locc_equivalent(GHZ3, ghz_like) is None
        assert slocc_equivalent(GHZ3, ghz_like) is not None

    def test_rotation_recovered(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            s = random_state(rng, n)
            rot = random_rotation(rng)
            witness = locc_equivalent(s, apply_symmetric(rot, s))
            assert witness is not None
            assert fidelity(apply_symmetric(witness.map, s), apply_symmetric(rot, s)) >= 1 - 1e-8

    def test_two_site_separation_mismatch(self):
        # same partition (2,1) but different chordal separations
        s1 = dicke(3, 1)  # sites 0 and infinity: separation 2
        s2 = state_from_roots(RootMultiset(3, (0j, 1 + 0j, 1 + 0j), 0))
        assert locc_equivalent(s1, s2) is None
        assert slocc_equivalent(s1, s2) is not None

    def test_hierarchy_on_random_pairs(self):
        rng = np.random.default_rng(25)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            s1 = state_from_roots(separated_root_multiset(rng, n, 0.15))
            mode = rng.integers(3)
            if mode == 0:
                s2 = apply_symmetric(random_rotation(rng), s1)
            elif mode == 1:
                s2 = apply_symmetric(random_moebius(rng), s1)
            else:
                s2 = state_from_roots(separated_root_multiset(rng, n, 0.15))
            locc = locc_equivalent(s1, s2)
            slocc = slocc_equivalent(s1, s2)
            dc1, _ = degeneracy_configuration(majorana_roots(s1))
            dc2, _ = degeneracy_configuration(majorana_roots(s2))
            if locc is not None:
                assert slocc is not None
            if slocc is not None:
                assert dc1.partition == dc2.partition


def all_triples_reference(sites1, sites2, unitary, tol=1e-7):
    """Witness matrix of the O(d^6) search the deciders used to run, or None:
    every ordered source triple against every multiplicity-compatible target
    triple, in serialized order.  Valid from four sites up."""
    for t1 in itertools.permutations(range(len(sites1.sites)), 3):
        mults1 = tuple(sites1.sites[i][1] for i in t1)
        source = tuple(sites1.sites[i][0] for i in t1)
        for t2 in itertools.permutations(range(len(sites2.sites)), 3):
            if tuple(sites2.sites[j][1] for j in t2) != mults1:
                continue
            try:
                m = from_three_points(*source, *(sites2.sites[j][0] for j in t2))
            except DomainError:
                continue
            if unitary and is_projective_unitary(m, tol) is None:
                continue
            if _maps_multiset(m, sites1, sites2, tol):
                return m.matrix
    return None


def reference_decision(s1, s2, unitary, tol=1e-7):
    dc1, sites1 = degeneracy_configuration(majorana_roots(s1), tol)
    dc2, sites2 = degeneracy_configuration(majorana_roots(s2), tol)
    if dc1.partition != dc2.partition:
        return None
    return all_triples_reference(sites1, sites2, unitary, tol)


def sorted_sites(pairs):
    return ClusteredRoots(tuple(sorted(pairs, key=lambda pair: _site_sort_key(pair[0]))))


def nudged(p, rng, chord):
    """A finite point about ``chord`` (chordal) from p in a random direction."""
    w = p.value
    return ExtendedComplex(w + 0.5 * chord * (1 + abs(w) ** 2) * np.exp(2j * np.pi * rng.uniform()))


def state_at(points, mults):
    finite = tuple(p.value for p, m in zip(points, mults) if not p.is_infinite for _ in range(m))
    return state_from_roots(RootMultiset(sum(mults), finite, sum(mults) - len(finite)))


def assert_oracle_witness(witness, s1, s2):
    image = apply_tensor(witness.map, expand_full(s1))
    assert equal_up_to_scale(image, expand_full(s2), 1e-8)


class TestMultisetMatching:
    TOL = 1e-7

    def test_matching_finds_what_greedy_misses(self):
        # near 0 the chordal distance is 2|dz|: site A lies closer to B's
        # target than to its own, so a nearest-neighbour pass hands B's
        # target to A and leaves B out of reach of A's
        a, a_target = 0.0, -0.45e-7
        b_target, b = 0.3e-7, 0.75e-7
        assert chordal_distance(a, b_target) < chordal_distance(a, a_target) <= self.TOL
        assert chordal_distance(b, b_target) <= self.TOL < chordal_distance(b, a_target)
        far = ExtendedComplex(1j)
        sites1 = ClusteredRoots(((ExtendedComplex(a), 1), (ExtendedComplex(b), 1), (far, 1)))
        sites2 = ClusteredRoots(
            ((ExtendedComplex(a_target), 1), (ExtendedComplex(b_target), 1), (far, 1))
        )
        assert _maps_multiset(MoebiusMap.identity(), sites1, sites2, self.TOL)

    def test_multiplicities_and_reach_are_required(self):
        near, far = ExtendedComplex(0.0), ExtendedComplex(1.0)
        sites1 = ClusteredRoots(((near, 2), (far, 1)))
        identity = MoebiusMap.identity()
        assert _maps_multiset(identity, sites1, sites1, self.TOL)
        swapped = ClusteredRoots(((near, 1), (far, 2)))
        assert not _maps_multiset(identity, sites1, swapped, self.TOL)
        moved = ClusteredRoots(((near, 2), (ExtendedComplex(1.0 + 1e-6), 1)))
        assert not _maps_multiset(identity, sites1, moved, self.TOL)


ANCHORS = ((), (ExtendedComplex(0.0),), (INFINITY,), (ExtendedComplex(0.0), INFINITY))


class TestExhaustiveSearch:
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        d=st.integers(4, 6),
        doubled=st.booleans(),
        relation=st.sampled_from(["norm4", "norm20", "norm100", "rotation", "inequivalent"]),
        anchors=st.sampled_from(ANCHORS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fixed_triple_matches_all_triples(self, d, doubled, relation, anchors, seed):
        rng = np.random.default_rng(seed)
        mults = [2 if doubled and i == 0 else 1 for i in range(d)]
        s1 = state_at(separated_points(rng, d, 0.15, anchors=anchors), mults)
        if relation == "inequivalent":
            s2 = state_at(separated_points(rng, d, 0.15, anchors=anchors), mults)
        elif relation == "rotation":
            s2 = apply_symmetric(random_rotation(rng), s1)
        else:
            s2 = apply_symmetric(random_moebius(rng, float(relation[4:])), s1)
        for decide, unitary in ((slocc_equivalent, False), (locc_equivalent, True)):
            witness = decide(s1, s2)
            reference = reference_decision(s1, s2, unitary)
            assert (witness is None) == (reference is None)
            if relation != "inequivalent" and (relation == "rotation" or not unitary):
                assert witness is not None
            if witness is not None:
                assert np.array_equal(witness.map.matrix, reference)
                assert_oracle_witness(witness, s1, s2)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        d=st.integers(4, 5),
        doubled=st.booleans(),
        max_norm=st.sampled_from([4.0, 20.0, 100.0]),
        unitary=st.booleans(),
        noise=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fixed_triple_matches_all_triples_at_the_tolerance_edge(
        self, d, doubled, max_norm, unitary, noise, seed
    ):
        # images read off up to about tol away from where the map puts them,
        # as roots of a state often are: the map through the first three
        # sites can then miss where one through another triple still carries
        tol = 1e-7
        rng = np.random.default_rng(seed)
        mults = [2 if doubled and i == 0 else 1 for i in range(d)]
        points = separated_points(rng, d, 0.15)
        m = random_rotation(rng) if unitary else random_moebius(rng, max_norm)
        sites1 = sorted_sites(zip(points, mults))
        sites2 = sorted_sites(
            (nudged(m(p), rng, noise * tol * rng.uniform()), mult) for p, mult in zip(points, mults)
        )
        witness = _witness_map(sites1, sites2, tol, unitary)
        reference = all_triples_reference(sites1, sites2, unitary, tol)
        if reference is None:
            assert witness is None
        else:
            assert np.array_equal(witness.matrix, reference)

    def test_witness_through_a_later_source_triple(self):
        # library sites of a (3,2,1,1,1) state and of its image under a
        # contracting map; the map through the first three sites misses two
        # sites by 3.5e-7 and 6.6e-7, the one through sites 1, 2, 3 carries all
        sites1 = ClusteredRoots((
            (ExtendedComplex(-0.33770778780087773 - 0.16831263475813088j), 1),
            (ExtendedComplex(-0.0009605777782914852 - 0.5219827612229895j), 1),
            (ExtendedComplex(-0.5998568781829923 - 0.1367492305886341j), 3),
            (ExtendedComplex(0.882705827485008 - 0.40994739985603196j), 1),
            (ExtendedComplex(1.7849928330067757 - 0.3792327751519813j), 2),
        ))
        sites2 = ClusteredRoots((
            (ExtendedComplex(0.3787733251521762 + 0.4252880117622395j), 2),
            (ExtendedComplex(0.4217731401060576 + 0.4282269767437737j), 1),
            (ExtendedComplex(0.46787522856875774 + 0.4775199533070994j), 1),
            (ExtendedComplex(0.52093810653959 + 0.5030228761106808j), 1),
            (ExtendedComplex(0.5248132356922883 + 0.5465816661878204j), 3),
        ))
        witness = _witness_map(sites1, sites2, 1e-7, unitary=False)
        assert witness is not None
        assert np.array_equal(witness.matrix, all_triples_reference(sites1, sites2, False))
        expected = from_three_points(*sites1.points()[1:4], *(sites2.points()[j] for j in (2, 4, 1)))
        assert np.array_equal(witness.matrix, expected.matrix)

    @pytest.mark.parametrize("n", [7, 8])
    def test_large_inequivalent_pairs(self, n):
        rng = np.random.default_rng(70 + n)
        s1 = state_from_roots(separated_root_multiset(rng, n, 0.1))
        s2 = state_from_roots(separated_root_multiset(rng, n, 0.1))
        assert slocc_equivalent(s1, s2) is None
        assert locc_equivalent(s1, s2) is None

    @pytest.mark.parametrize("n", [7, 8])
    def test_large_slocc_only_pairs(self, n):
        rng = np.random.default_rng(80 + n)
        s1 = state_from_roots(separated_root_multiset(rng, n, 0.1))
        s2 = apply_symmetric(random_moebius(rng), s1)
        witness = slocc_equivalent(s1, s2)
        assert witness is not None
        assert_oracle_witness(witness, s1, s2)
        assert locc_equivalent(s1, s2) is None

    @pytest.mark.parametrize("rows", [1, 7, 1000])
    def test_target_triples_come_in_blocks_in_order(self, rows):
        def sites(mults):
            return ClusteredRoots(tuple((ExtendedComplex(float(i)), m) for i, m in enumerate(mults)))

        mults1, mults2 = (1, 2, 1, 1, 3, 1), (2, 1, 1, 3, 1, 1)
        blocks = list(_target_triples(sites(mults1), sites(mults2), rows))
        assert all(len(b) == rows for b in blocks[:-1]) and 0 < len(blocks[-1]) <= rows
        expected = [
            t for t in itertools.permutations(range(6), 3)
            if tuple(mults2[j] for j in t) == mults1[:3]
        ]
        assert [tuple(t) for b in blocks for t in b.tolist()] == expected

    @pytest.mark.parametrize("relation", ["moebius", "rotation", "inequivalent"])
    def test_many_sites_in_bounded_memory(self, relation):
        # 64 sites give 249,984 candidate maps; the distances from every
        # site image to every target, held at once, would take 16 GB.  The
        # rotation pair is decided from states, so that the roots of two
        # n = 64 states are read as well
        tol = 1e-7
        rng = np.random.default_rng(64)
        points = separated_points(rng, 64, 0.2)
        unitary = relation == "rotation"
        if unitary:
            s1 = state_at(points, [1] * 64)
            s2 = apply_symmetric(random_rotation(rng), s1)
            sites1, sites2 = (degeneracy_configuration(majorana_roots(s), tol)[1] for s in (s1, s2))
        else:
            if relation == "inequivalent":
                images = separated_points(rng, 64, 0.2)
            else:
                m = random_moebius(rng, 1.5)
                images = [m(p) for p in points]
            sites1 = sorted_sites((p, 1) for p in points)
            sites2 = sorted_sites((p, 1) for p in images)
        tracemalloc.start()
        try:
            if unitary:
                witness = locc_equivalent(s1, s2, tol).map
            else:
                witness = _witness_map(sites1, sites2, tol, unitary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        if relation == "inequivalent":
            assert witness is None
        else:
            assert _maps_multiset(witness, sites1, sites2, tol)
            assert not unitary or is_projective_unitary(witness, tol) is not None


class TestFingerprint:
    def test_reference_quadruple_contains_w(self):
        w = 0.4 + 1.1j
        r = RootMultiset(4, (0j, 1 + 0j, complex(w)), 1)
        values = cross_ratio_fingerprint(r)
        assert len(values) == 24
        assert any(abs(v - w) < 1e-12 for v in values)

    def test_invariance_under_maps(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            r = separated_root_multiset(rng, 4, 0.15)
            m = random_moebius(rng)
            s = apply_symmetric(m, state_from_roots(r))
            f1 = cross_ratio_fingerprint(r)
            f2 = cross_ratio_fingerprint(majorana_roots(s))
            assert all(abs(a - b) <= 1e-7 * (1 + abs(a)) for a, b in zip(f1, f2))

    def test_distinct_family_parameters_disjoint(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            t1 = param_to_t(rng.uniform(0.2, 1.4), rng.uniform(0.1, 2.0))
            t2 = param_to_t(rng.uniform(0.2, 1.4), rng.uniform(0.1, 2.0))
            if abs(t1 - t2) < 0.05:
                continue
            f1 = cross_ratio_fingerprint(majorana_roots(family_state_4(t1)))
            f2 = cross_ratio_fingerprint(majorana_roots(family_state_4(t2)))
            assert not fingerprints_intersect(f1, f2, 1e-7)

    def test_wrong_diversity_rejected(self):
        with pytest.raises(DomainError):
            cross_ratio_fingerprint(majorana_roots(GHZ3))


class TestCocircularity:
    def test_pyramid_vs_bipyramid_certificate(self):
        pair = cocircularity_witness(SQUARE_PYRAMID, TRIGONAL_BIPYRAMID)
        assert pair is not None
        sig1, sig2 = pair
        assert max(sig1.on_circle_counts()) == 4
        assert max(sig2.on_circle_counts()) == 3

    def test_moebius_image_is_inconclusive(self):
        rng = np.random.default_rng(28)
        for base in (SQUARE_PYRAMID, TRIGONAL_BIPYRAMID):
            m = random_moebius(rng)
            image = majorana_roots(apply_symmetric(m, state_from_roots(base)))
            assert cocircularity_witness(base, image) is None

    def test_three_sites_trivially_match(self):
        r1 = majorana_roots(GHZ3)
        r2 = majorana_roots(SymmetricState([1.0, 0.0, 0.0, 5.0]))
        assert cocircularity_witness(r1, r2) is None

    def test_mismatched_n(self):
        with pytest.raises(DomainError):
            cocircularity_witness(SQUARE_PYRAMID, majorana_roots(GHZ3))
