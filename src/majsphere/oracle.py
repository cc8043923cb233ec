"""Brute-force reference engine on full 2^n state vectors.

Everything here is deliberately naive: dense vectors, brute-force
symmetrization over all qubit permutations, per-qubit matrix application.
It exists to cross-check the root-level machinery at small n, so it must
not share any of its algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .moebius import MoebiusMap
from .plane import SpherePoint
from .symstate import SymmetricState

#: dense-vector qubit guard (2^n amplitudes)
MAX_DENSE_QUBITS = 20
#: symmetrization qubit guard
MAX_SYMMETRIZE_QUBITS = 10


@dataclass(frozen=True)
class DenseState:
    """Unnormalized 2^n amplitude vector; basis index bit i is qubit i."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=complex)
        if arr.shape != (2**self.n,):
            raise DomainError(f"expected {2**self.n} amplitudes")
        if not np.any(arr):
            raise DomainError("the zero vector is not a state")
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)


def _popcount(indices: np.ndarray) -> np.ndarray:
    x = indices.astype(np.uint32)
    x = x - ((x >> 1) & 0x55555555)
    x = (x & 0x33333333) + ((x >> 2) & 0x33333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F
    return (x * 0x01010101) >> 24


def expand_full(s: SymmetricState) -> DenseState:
    """Dense vector of a symmetric state: each Dicke amplitude spread evenly
    over the computational indices of its excitation number."""
    n = s.n
    if n > MAX_DENSE_QUBITS:
        raise ResourceLimitError(f"dense expansion capped at n={MAX_DENSE_QUBITS}")
    weights = _popcount(np.arange(2**n))
    vec = np.zeros(2**n, dtype=complex)
    for k in range(n + 1):
        vec[weights == k] = s.amps[k] / math.sqrt(math.comb(n, k))
    return DenseState(n, vec)


def symmetrize(bloch: list[SpherePoint]) -> DenseState:
    """Normalized permutation sum of the product of single-qubit states
    cos(theta/2)|0> + e^(i*phi) sin(theta/2)|1> at the given sphere points.

    The sum over all n! orderings is built by coset recursion: if T is the
    sum for the first k-1 points, the sum for k points is T (x) v_k plus its
    swaps of the new tensor axis with each earlier axis.
    """
    n = len(bloch)
    if n < 1:
        raise DomainError("need at least one sphere point")
    if n > MAX_SYMMETRIZE_QUBITS:
        raise ResourceLimitError(f"permutation sum capped at n={MAX_SYMMETRIZE_QUBITS}")
    single = [
        np.array(
            [math.cos(0.5 * p.theta), np.exp(1j * p.phi) * math.sin(0.5 * p.theta)],
            dtype=complex,
        )
        for p in bloch
    ]
    acc = single[0]
    for k in range(1, n):
        acc = np.multiply.outer(acc, single[k])
        acc = acc + sum(np.swapaxes(acc, j, k) for j in range(k))
    acc = acc.reshape(-1)
    return DenseState(n, acc / np.linalg.norm(acc))


def apply_tensor(m: MoebiusMap, v: DenseState) -> DenseState:
    """Apply the map's 2x2 matrix to every qubit of a dense vector."""
    mat = m.matrix
    tensor = v.amplitudes.reshape((2,) * v.n)
    for axis in range(v.n):
        tensor = np.moveaxis(
            np.tensordot(mat, tensor, axes=([1], [axis])), 0, axis
        )
    return DenseState(v.n, tensor.reshape(-1))


def equal_up_to_scale(v1: DenseState, v2: DenseState, tol: float = 1e-8) -> bool:
    """Whether v1 = lambda * v2 for some nonzero complex lambda, tested via
    the normalized overlap modulus."""
    if v1.n != v2.n:
        raise DomainError("states must have the same qubit count")
    a = v1.amplitudes / np.linalg.norm(v1.amplitudes)
    b = v2.amplitudes / np.linalg.norm(v2.amplitudes)
    return float(abs(np.vdot(a, b))) >= 1.0 - tol
