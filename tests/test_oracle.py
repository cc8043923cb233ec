import itertools
import math

import numpy as np
import pytest

from majsphere import (
    DenseState,
    DomainError,
    MoebiusMap,
    ResourceLimitError,
    SpherePoint,
    SymmetricState,
    apply_tensor,
    dicke,
    equal_up_to_scale,
    expand_full,
    from_sphere,
    state_from_roots,
    symmetrize,
    RootMultiset,
)
from helpers import random_rotation, random_state


def brute_force_dicke(n, k):
    """Independent expansion: enumerate bit permutations directly."""
    vec = np.zeros(2**n, dtype=complex)
    bits = [1] * k + [0] * (n - k)
    seen = set()
    for perm in itertools.permutations(bits):
        seen.add(sum(b << i for i, b in enumerate(perm)))
    for idx in seen:
        vec[idx] = 1.0 / math.sqrt(len(seen))
    return vec


def permutation_sum_reference(bloch):
    """The symmetrized product state as an explicit sum over all n! orderings."""
    single = [
        np.array([math.cos(0.5 * p.theta), np.exp(1j * p.phi) * math.sin(0.5 * p.theta)])
        for p in bloch
    ]
    acc = np.zeros(2 ** len(bloch), dtype=complex)
    for perm in itertools.permutations(range(len(bloch))):
        prod = single[perm[0]]
        for i in perm[1:]:
            prod = (prod[:, None] * single[i][None, :]).reshape(-1)
        acc += prod
    return acc / np.linalg.norm(acc)


class TestExpandFull:
    def test_s1_of_two(self):
        dense = expand_full(dicke(2, 1))
        assert np.allclose(dense.amplitudes, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])

    def test_s0_of_three(self):
        dense = expand_full(dicke(3, 0))
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(dense.amplitudes, expected)

    def test_ghz(self):
        dense = expand_full(SymmetricState([1, 0, 0, 1]))
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[7] = 1 / math.sqrt(2)
        assert np.allclose(dense.amplitudes, expected)

    def test_matches_permutation_enumeration(self):
        for n in range(1, 6):
            for k in range(n + 1):
                assert np.allclose(
                    expand_full(dicke(n, k)).amplitudes, brute_force_dicke(n, k)
                )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            dense = expand_full(random_state(rng, n)).amplitudes.reshape((2,) * n)
            i, j = rng.choice(n, size=2, replace=False)
            swapped = np.swapaxes(dense, i, j)
            assert np.array_equal(dense, swapped)

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError):
            expand_full(dicke(21, 0))


class TestSymmetrize:
    def test_antipodal_pair_is_s1(self):
        dense = symmetrize([SpherePoint(0.0, 0.0), SpherePoint(math.pi, 0.0)])
        assert equal_up_to_scale(dense, expand_full(dicke(2, 1)), 1e-12)

    def test_equatorial_triangle_is_ghz(self):
        pts = [SpherePoint(math.pi / 2, phi) for phi in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
        dense = symmetrize(pts)
        assert equal_up_to_scale(dense, expand_full(SymmetricState([1, 0, 0, 1])), 1e-12)

    def test_coincident_points_give_product_state(self):
        sp = SpherePoint(1.1, 0.7)
        dense = symmetrize([sp] * 4)
        single = np.array(
            [math.cos(sp.theta / 2), np.exp(1j * sp.phi) * math.sin(sp.theta / 2)]
        )
        prod = single
        for _ in range(3):
            prod = np.kron(prod, single)
        assert equal_up_to_scale(dense, DenseState(4, prod), 1e-12)

    def test_matches_root_reconstruction(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            pts = [
                SpherePoint(rng.uniform(0.1, math.pi - 0.1), rng.uniform(0, 2 * math.pi))
                for _ in range(n)
            ]
            dense = symmetrize(pts)
            roots = [from_sphere(p) for p in pts]
            finite = tuple(r.value for r in roots if not r.is_infinite)
            s = state_from_roots(RootMultiset(n, finite, n - len(finite)))
            assert equal_up_to_scale(dense, expand_full(s), 1e-10)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_permutation_sum(self, n):
        rng = np.random.default_rng(100 + n)
        pts = [
            SpherePoint(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi))
            for _ in range(n)
        ]
        diff = symmetrize(pts).amplitudes - permutation_sum_reference(pts)
        assert np.max(np.abs(diff)) <= 1e-13

    def test_guards(self):
        with pytest.raises(DomainError):
            symmetrize([])
        with pytest.raises(ResourceLimitError):
            symmetrize([SpherePoint(1.0, 1.0)] * 11)


class TestApplyTensor:
    def test_identity(self):
        v = expand_full(random_state(np.random.default_rng(52), 3))
        out = apply_tensor(MoebiusMap.identity(), v)
        assert np.allclose(out.amplitudes, v.amplitudes)

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            v = expand_full(random_state(rng, n))
            out = apply_tensor(random_rotation(rng), v)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12

    def test_hyperbolic_dual_path(self):
        from majsphere import apply_symmetric

        ghz = SymmetricState([1, 0, 0, 1])
        m = MoebiusMap(1.0, 0.0, 0.0, 2.0)
        dense = apply_tensor(m, expand_full(ghz))
        via_roots = expand_full(apply_symmetric(m, ghz))
        assert equal_up_to_scale(dense, via_roots, 1e-10)


class TestEqualUpToScale:
    def test_scalar_multiples(self):
        v = expand_full(dicke(2, 1))
        scaled = DenseState(2, 3j * v.amplitudes)
        assert equal_up_to_scale(v, scaled, 1e-12)

    def test_distinct_states(self):
        assert not equal_up_to_scale(expand_full(dicke(2, 0)), expand_full(dicke(2, 1)), 1e-8)

    def test_mismatched_n(self):
        with pytest.raises(DomainError):
            equal_up_to_scale(expand_full(dicke(2, 0)), expand_full(dicke(3, 0)))
