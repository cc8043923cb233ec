import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from majsphere import (
    INFINITY,
    DomainError,
    ExtendedComplex,
    MoebiusMap,
    RootMultiset,
    SymmetricState,
    apply_symmetric,
    chordal_distance,
    degeneracy_configuration,
    dicke,
    fidelity,
    majorana_polynomial,
    majorana_roots,
    roots_from_doc,
    roots_to_doc,
    state_from_doc,
    state_from_roots,
    state_to_doc,
    to_sphere,
)
from majsphere import symstate
from helpers import (
    OMEGA,
    multiset_matches,
    random_moebius,
    random_rotation,
    random_state,
    separated_points,
    separated_root_multiset,
)

GHZ3 = SymmetricState([1.0, 0.0, 0.0, 1.0])


class TestSymmetricState:
    def test_dicke_basis_vectors(self):
        w = dicke(3, 1)
        assert np.allclose(w.amps, [0, 1, 0, 0])
        zero = dicke(1, 0)
        assert np.allclose(zero.amps, [1, 0])

    def test_dicke_domain_errors(self):
        with pytest.raises(DomainError):
            dicke(0, 0)
        with pytest.raises(DomainError):
            dicke(3, 4)
        with pytest.raises(DomainError):
            dicke(3, -1)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            SymmetricState([0.0, 0.0, 0.0])

    def test_normalization_and_phase_convention(self):
        s = SymmetricState([2j, 0.0, 2j])
        assert np.linalg.norm(s.amps) == pytest.approx(1.0)
        # lowest nonzero amplitude is real positive
        assert s.amps[0].imag == 0.0
        assert s.amps[0].real > 0.0
        t = SymmetricState([0.0, -1.0, 0.0, 0.0])
        assert t.amps[1] == 1.0

    @pytest.mark.parametrize("amps", [
        [1e200, 1e200],
        [1e-200, 1e-200],
        [1e160, 3e159, 1.0],
        [1e-170, 0.0, 2e-170],
        [1e-160, 1e-161j],
        [1.5e308 + 1.5e308j, 1.0],
    ])
    def test_huge_or_tiny_amplitudes_are_normalized(self, amps):
        # the 2-norm of these over- or underflows, or sums subnormal squares
        # (the last one's largest modulus overflows too); the state is their
        # direction
        s = SymmetricState(amps)
        assert np.linalg.norm(s.amps) == pytest.approx(1.0)
        parts = np.array(amps, dtype=complex).view(float)
        rescaled = np.array(amps, dtype=complex) / np.max(np.abs(parts))
        assert np.array_equal(s.amps, SymmetricState(rescaled).amps)

    def test_fidelity_is_phase_free(self):
        s = SymmetricState([1.0, 2.0, 3.0])
        t = SymmetricState(np.array([1.0, 2.0, 3.0]) * cmath.exp(0.7j))
        assert fidelity(s, t) == pytest.approx(1.0)
        with pytest.raises(DomainError):
            fidelity(s, dicke(3, 0))


class TestPolynomial:
    def test_ghz_polynomial_is_cubic_minus_one(self):
        c = majorana_polynomial(GHZ3)
        assert np.allclose(c * math.sqrt(2.0), [-1, 0, 0, 1])

    def test_w_polynomial_is_linear(self):
        c = majorana_polynomial(dicke(3, 1))
        assert np.allclose(c, [0, math.sqrt(3), 0, 0])

    def test_s0_polynomial_is_constant(self):
        c = majorana_polynomial(dicke(4, 0))
        assert np.allclose(c, [1, 0, 0, 0, 0])


class TestRoots:
    def test_ghz_roots_are_cube_roots_of_unity(self):
        r = majorana_roots(GHZ3)
        assert r.infinity_count == 0
        expected = RootMultiset(3, (1 + 0j, OMEGA, OMEGA**2), 0)
        assert multiset_matches(r, expected, 1e-12)

    def test_w_state_roots(self):
        r = majorana_roots(dicke(3, 1))
        assert r.infinity_count == 2
        assert r.finite_roots == (0j,)

    def test_s2_of_4_roots(self):
        r = majorana_roots(dicke(4, 2))
        assert r.infinity_count == 2
        assert r.finite_roots == (0j, 0j)

    def test_degree_drop_matches_trailing_zeros(self):
        for n in range(1, 9):
            for m in range(n + 1):
                amps = np.zeros(n + 1, dtype=complex)
                amps[: m + 1] = 1.0 + 0.5j
                r = majorana_roots(SymmetricState(amps))
                assert r.infinity_count == n - m

    def test_multiple_root_positions_are_sharp(self):
        target = RootMultiset(4, (2 + 0j, 2 + 0j, 2 + 0j, -1 + 0j), 0)
        r = majorana_roots(state_from_roots(target))
        assert multiset_matches(r, target, 1e-9)

    def test_quadruple_root(self):
        target = RootMultiset(5, (1 + 1j,) * 4 + (-2 + 0j,), 0)
        r = majorana_roots(state_from_roots(target))
        assert multiset_matches(r, target, 1e-8)

    def test_close_but_distinct_roots_stay_distinct(self):
        target = RootMultiset(3, (1 + 0j, 1 + 1e-3j, -1 + 0j), 0)
        r = majorana_roots(state_from_roots(target))
        assert multiset_matches(r, target, 1e-9)

    @pytest.mark.parametrize("seed", [4, 23, 28, 47, 64])
    def test_large_finite_roots_are_not_read_at_infinity(self, seed):
        # the binomial weights put the leading coefficient of these n = 64
        # states below 1e-12 of the largest one; their last amplitude is not
        target = separated_root_multiset(np.random.default_rng(seed), 64, 0.2)
        r = majorana_roots(state_from_roots(target))
        assert r.infinity_count == 0
        for z in target.finite_roots:
            assert min(chordal_distance(z, w) for w in r.finite_roots) <= 1e-9

    def test_exact_degree_drop_reads_roots_at_infinity(self):
        for n in (1, 2, 7, 16, 33, 64):
            for k in range(n + 1):
                r = majorana_roots(dicke(n, k))
                assert r.infinity_count == n - k
                assert r.finite_roots == (0j,) * k

    def test_polishing_stops_at_the_rounding_floor(self, monkeypatch):
        # |p| of a 4-fold root stops falling long before the step test fires
        calls = []

        def counted(desc, z):
            calls.append(z)
            return horner(desc, z)

        horner = symstate._horner_pair
        monkeypatch.setattr(symstate, "_horner_pair", counted)
        desc = np.poly([0.5 + 0.5j] * 4 + [-2.0])
        z = symstate._newton_best(desc, 0.51 + 0.5j, symstate.POLISH_MAX_ITER)
        assert abs(z - (0.5 + 0.5j)) < 1e-3
        assert len(calls) < symstate.POLISH_MAX_ITER // 2

    def test_root_ordering_is_deterministic(self):
        r = majorana_roots(GHZ3)
        key = [(abs(z), cmath.phase(z) % (2 * math.pi)) for z in r.finite_roots]
        assert key == sorted(key)


def assert_read_back(seed, mults, at_zero, at_infinity):
    """Sites at least 0.2 apart with the given multiplicities, the first
    ones at 0 and at infinity on request: the state built from them reads
    back its partition, every site within 1e-9 and the state within 1e-10."""
    anchors = [ExtendedComplex(0.0)] * at_zero + [INFINITY] * at_infinity
    points = separated_points(np.random.default_rng(seed), len(mults), 0.2, anchors=anchors)
    finite = [p.value for p, m in zip(points, mults) if not p.is_infinite for _ in range(m)]
    n = sum(mults)
    s = state_from_roots(RootMultiset(n, tuple(finite), n - len(finite)))
    r = majorana_roots(s)
    dc, clustered = degeneracy_configuration(r)
    assert dc.partition == tuple(sorted(mults, reverse=True))
    for p, m in zip(points, mults):
        assert min(chordal_distance(p, q) for q, k in clustered.sites if k == m) <= 1e-9
    assert 1.0 - fidelity(s, state_from_roots(r)) <= 1e-10


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    count=st.integers(2, 8),
    multiplicity=st.integers(2, 6),
    place=st.integers(0, 7),
    at_zero=st.booleans(),
    at_infinity=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_multiple_root_among_few_sites_is_read_back(
    count, multiplicity, place, at_zero, at_infinity, seed
):
    # the multiple site may be the one at 0 or at infinity.  Among more
    # sites, or next to other multiple sites, multiple roots are still
    # sometimes read off by more than 1e-9 (ROADMAP item 4)
    mults = [multiplicity if i == place % count else 1 for i in range(count)]
    assert_read_back(seed, mults, at_zero, at_infinity)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    count=st.integers(2, 64),
    at_zero=st.booleans(),
    at_infinity=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_simple_roots_up_to_64_are_read_back(count, at_zero, at_infinity, seed):
    assert_read_back(seed, [1] * count, at_zero, at_infinity)


class TestStateFromRoots:
    def test_cube_roots_give_ghz(self):
        s = state_from_roots(RootMultiset(3, (1 + 0j, OMEGA, OMEGA**2), 0))
        assert fidelity(s, GHZ3) == pytest.approx(1.0)

    def test_all_infinity_gives_s0(self):
        for n in (1, 3, 6):
            s = state_from_roots(RootMultiset(n, (), n))
            assert fidelity(s, dicke(n, 0)) == pytest.approx(1.0)

    def test_zero_and_infinity_gives_s1(self):
        s = state_from_roots(RootMultiset(2, (0j,), 1))
        assert fidelity(s, dicke(2, 1)) == pytest.approx(1.0)

    def test_round_trip_random_separated(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            target = separated_root_multiset(rng, n, 0.05, allow_infinity=True)
            s = state_from_roots(target)
            assert fidelity(s, state_from_roots(majorana_roots(s))) >= 1 - 1e-9
            assert multiset_matches(majorana_roots(s), target, 1e-8)

    def test_matches_the_monic_product(self):
        # the factors' power-of-two scaling is exact, so roots whose monic
        # product does not overflow keep its digits
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 33))
            moduli = 10.0 ** rng.uniform(-3.0, 3.0, n)
            roots = moduli * np.exp(2j * math.pi * rng.uniform(size=n))
            r = RootMultiset(n, tuple(complex(z) for z in roots), 0)
            desc = np.ones(1, dtype=complex)
            for z in r.finite_roots:
                desc = np.convolve(desc, np.array([1.0, -z], dtype=complex))
            k = np.arange(n + 1)
            signs = np.where((n - k) % 2 == 0, 1.0, -1.0)
            weights = np.array([math.sqrt(math.comb(n, j)) for j in range(n + 1)])
            reference = SymmetricState(signs * desc[::-1] / weights)
            assert np.array_equal(state_from_roots(r).amps, reference.amps)

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("radius", [10.0, 1e10, 1e50, 1e200])
    def test_far_ring_gives_the_closed_form(self, n, radius):
        # n roots of modulus R are z^n - R^n, so a_n / a_0 = -(-1)^n R^-n.
        # That is far below TRUNCATION_RTOL for most of these rings, which
        # read back at infinity (ROADMAP item 13); only the state is checked
        roots = tuple(radius * cmath.exp(2j * math.pi * k / n) for k in range(n))
        s = state_from_roots(RootMultiset(n, roots, 0))
        assert np.all(np.isfinite(s.amps))
        exact = np.zeros(n + 1, dtype=complex)
        exact[0] = 1.0
        exact[n] = -((-1) ** n) * math.exp(-n * math.log(radius))
        assert 1.0 - fidelity(s, SymmetricState(exact)) <= 1e-12


class TestApplySymmetric:
    def test_identity_map(self):
        s = random_state(np.random.default_rng(5), 4)
        assert fidelity(apply_symmetric(MoebiusMap.identity(), s), s) >= 1 - 1e-12

    def test_halving_map_lowers_ghz_ring(self):
        m = MoebiusMap(1.0, 0.0, 0.0, 2.0)  # z -> z/2
        r = majorana_roots(apply_symmetric(m, GHZ3))
        assert r.infinity_count == 0
        assert all(abs(abs(z) - 0.5) < 1e-12 for z in r.finite_roots)

    def test_single_qubit_action_is_matrix_action(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = random_state(rng, 1)
            m = random_moebius(rng)
            direct = SymmetricState(m.matrix @ s.amps)
            assert fidelity(apply_symmetric(m, s), direct) >= 1 - 1e-12

    def test_matches_tensor_oracle(self):
        from majsphere import apply_tensor, equal_up_to_scale, expand_full

        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            s = random_state(rng, n)
            m = random_moebius(rng)
            dense = apply_tensor(m, expand_full(s))
            via_roots = expand_full(apply_symmetric(m, s))
            assert equal_up_to_scale(dense, via_roots, 1e-8)

    def test_singular_matrix_rejected(self):
        with pytest.raises(DomainError):
            MoebiusMap(1.0, 2.0, 2.0, 4.0)

    def test_rotation_rigidity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            s = random_state(rng, n)
            rot = random_rotation(rng)
            before = majorana_roots(s).points()
            after = majorana_roots(apply_symmetric(rot, s)).points()
            imgs = [rot(p) for p in before]
            dist_before = sorted(
                chordal_distance(a, b) for a, b in itertools.combinations(imgs, 2)
            )
            dist_after = sorted(
                chordal_distance(a, b) for a, b in itertools.combinations(after, 2)
            )
            for x, y in zip(dist_before, dist_after):
                assert abs(x - y) <= 1e-9


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(1, 64),
    log_scale=st.floats(-9.0, 9.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_scaling_divides_amplitudes_by_powers_of_the_scale(n, log_scale, seed):
    # z -> c*z sends a_k to a_k * c^-k; taken in logs, the exact image
    # cannot overflow, whatever c^n is
    s = random_state(np.random.default_rng(seed), n)
    c = 10.0 ** log_scale
    logs = np.log(np.abs(s.amps)) - np.arange(n + 1) * math.log(c)
    exact = np.exp(logs - logs.max()) * np.exp(1j * np.angle(s.amps))
    image = apply_symmetric(MoebiusMap.scaling(c), s)
    assert 1.0 - fidelity(image, SymmetricState(exact)) <= 1e-12


class TestSphereChecks:
    def test_zero_ket_sits_at_north_pole(self):
        r = majorana_roots(dicke(1, 0))
        assert r.infinity_count == 1
        assert to_sphere(INFINITY).theta == 0.0

    def test_family_parameter_lands_moving_point(self):
        # moving point 1/t with t = e^(i phi) tan(theta/2) sits at (theta, phi)
        rng = np.random.default_rng(9)
        for _ in range(100):
            theta = rng.uniform(0.05, math.pi - 0.05)
            phi = rng.uniform(0.0, 2 * math.pi)
            t = cmath.rect(math.tan(theta / 2.0), phi)
            sp = to_sphere(1.0 / t)
            assert abs(sp.theta - theta) <= 1e-12
            assert min(abs(sp.phi - phi % (2 * math.pi)), abs(sp.phi - phi % (2 * math.pi) + 2 * math.pi), abs(sp.phi - phi % (2 * math.pi) - 2 * math.pi)) <= 1e-11


class TestDocs:
    def test_state_doc_round_trip(self):
        s = random_state(np.random.default_rng(10), 3)
        doc = state_to_doc(s)
        assert doc["n"] == 3 and len(doc["dicke"]) == 4
        t = state_from_doc(doc)
        assert np.array_equal(t.amps, s.amps)

    def test_roots_doc_round_trip(self):
        r = majorana_roots(dicke(4, 1))
        doc = roots_to_doc(r)
        assert doc == {"n": 4, "roots": [[0.0, 0.0]], "at_infinity": 3}
        assert roots_from_doc(doc) == r

    def test_doc_validation(self):
        with pytest.raises(DomainError):
            state_from_doc({"n": 2, "dicke": [[1, 0]]})
        with pytest.raises(DomainError):
            state_from_doc({"n": "2", "dicke": [[1, 0], [0, 0], [0, 0]]})
        with pytest.raises(DomainError):
            roots_from_doc({"n": 2, "roots": [[0, 0]], "at_infinity": 0})
        with pytest.raises(DomainError):
            roots_from_doc({"n": 2, "roots": [[0, 0, 1]], "at_infinity": 1})
