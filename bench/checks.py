"""Output checks, run after the timed phase.

Witnesses and transforms up to 16 qubits are compared with the dense tensor
oracle.  Above that the dense vector is too large, and the check compares
with an mpmath evaluation of the map's action on the state's polynomial,

    q(w) = sum_k c_k (d*w - b)^k (a - c*w)^(n-k),

recovered from its values at the (n+1)-th roots of unity.  An inverse round
trip is no check at these sizes: its error comes from the conditioning of
the inverse map, not from the forward result.
"""

from __future__ import annotations

import math

import numpy as np

from majsphere import (
    DEFAULT_TOL,
    apply_tensor,
    equal_up_to_scale,
    expand_full,
    is_projective_unitary,
)

#: largest qubit count checked against the dense 2^n oracle
DENSE_MAX_N = 16
#: 1 - fidelity accepted between a result and its reference
MATCH_TOL = 1e-10
#: working precision of the mpmath reference, in decimal digits
MP_DPS = 30


def one_minus_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return 1.0 - float(abs(np.vdot(a, b)))


def mp_transform(amps: np.ndarray, m) -> np.ndarray:
    """Normalized Dicke amplitudes of the state moved by the map m."""
    # imported here so that the set-up probe, which imports the workloads,
    # does not time the mpmath import
    import mpmath

    n = len(amps) - 1
    size = n + 1
    with mpmath.workdps(MP_DPS):
        coeffs = [
            (-1) ** (n - k) * mpmath.mpc(complex(amps[k])) * mpmath.sqrt(math.comb(n, k))
            for k in range(size)
        ]
        a, b, c, d = (mpmath.mpc(complex(x)) for x in (m.a, m.b, m.c, m.d))
        nodes = [mpmath.expjpi(mpmath.mpf(2 * j) / size) for j in range(size)]
        values = []
        for w in nodes:
            u = d * w - b
            v = a - c * w
            # Horner in the smaller of u/v and v/u keeps the powers bounded
            if abs(v) >= abs(u):
                t, big, order = u / v, v, range(n, -1, -1)
            else:
                t, big, order = v / u, u, range(size)
            acc = mpmath.mpc(0)
            for k in order:
                acc = acc * t + coeffs[k]
            values.append(acc * big**n)
        out = np.empty(size, dtype=complex)
        for k in range(size):
            coeff = mpmath.fdot(values, [nodes[(-j * k) % size] for j in range(size)])
            out[k] = complex((-1) ** (n - k) * coeff / (size * mpmath.sqrt(math.comb(n, k))))
    return out / np.linalg.norm(out)


def transform_ok(m, source, result) -> bool:
    """Whether result is the state source moved by the map m."""
    if source.n <= DENSE_MAX_N:
        moved = apply_tensor(m, expand_full(source))
        return equal_up_to_scale(moved, expand_full(result), MATCH_TOL)
    return one_minus_fidelity(mp_transform(source.amps, m), result.amps) <= MATCH_TOL


def witness_ok(witness, s1, s2, unitary: bool) -> bool:
    """Whether the witness carries s1 onto s2 (dense oracle) and, for LOCC,
    is a rotation under the decider's own tolerance."""
    if witness.kind != ("locc" if unitary else "slocc"):
        return False
    if unitary and is_projective_unitary(witness.map, DEFAULT_TOL) is None:
        return False
    moved = apply_tensor(witness.map, expand_full(s1))
    return equal_up_to_scale(moved, expand_full(s2), MATCH_TOL)


def docs_match(got, want) -> bool:
    """Equality of JSON values, with floats compared to 1e-12 relative."""
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and list(got) == list(want)
            and all(docs_match(got[k], want[k]) for k in want)
        )
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(docs_match(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, float):
        return (
            isinstance(got, (int, float))
            and not isinstance(got, bool)
            and math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)
        )
    return type(got) is type(want) and got == want
