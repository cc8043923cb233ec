"""Canonical representative states for four and five qubits.

Each SLOCC class gets one representative: three points are anchored on an
equilateral equatorial triangle and the remaining points are folded into a
half-open fundamental domain.  Canonicalizing any state of the class
recovers the same (theta, phi) parameters.
"""


import numpy as np

from majsphere import (
    MoebiusMap,
    RootMultiset,
    apply_symmetric,
    canonicalize,
    chordal_distance,
    dicke,
    family_state_4,
    family_state_5,
    param_to_t,
    slocc_equivalent,
    state_from_roots,
)

rng = np.random.default_rng(12345)


def random_moebius(rng):
    while True:
        mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(mat)) > 0.3:
            return MoebiusMap(*mat.flatten())


def separated_root_multiset(rng, n, min_sep):
    roots = []
    while len(roots) < n:
        z = complex(rng.standard_normal(), rng.standard_normal())
        if all(chordal_distance(z, w) > min_sep for w in roots):
            roots.append(z)
    return RootMultiset(n, tuple(roots), 0)

print("== Fixed representatives ==")
for n, k in ((4, 0), (4, 1), (4, 2)):
    form = canonicalize(dicke(n, k))
    print(f"|S_{k}> of {n} qubits -> partition {form.partition}, params {form.params}")
print()

print("== Four-qubit family: construct, scramble, recover ==")
theta, phi = 0.5, 0.3
state = family_state_4(param_to_t(theta, phi))
scrambled = apply_symmetric(random_moebius(rng), state)
form = canonicalize(scrambled)
print(f"constructed at (theta, phi) = ({theta}, {phi})")
print(f"recovered        (theta, phi) = ({form.params[0]:.12f}, {form.params[1]:.12f})\n")

print("== Five-qubit family with a doubled point ==")
theta, phi = 0.8, 2.0
state = family_state_5(param_to_t(theta, phi))
scrambled = apply_symmetric(random_moebius(rng), state)
form = canonicalize(scrambled)
print(f"constructed at (theta, phi) = ({theta}, {phi})")
print(f"recovered        (theta, phi) = ({form.params[0]:.12f}, {form.params[1]:.12f})")
print("special points: t = 1 joins the doubled vertex, t = exp(2i pi/3) a single one")
print(f"  t=1      -> {canonicalize(family_state_5(1.0)).partition}")
print(f"  t=omega  -> {canonicalize(family_state_5(np.exp(2j*np.pi/3))).partition}\n")

print("== Generic five-qubit states (over-complete parameterization) ==")
s = state_from_roots(separated_root_multiset(rng, 5, 0.2))
form = canonicalize(s)
print(f"parameters (theta1, phi1, theta2, phi2) = {tuple(round(p, 6) for p in form.params)}")
print(f"flagged unique: {form.unique}")
print(f"representative is SLOCC-equivalent to the input: "
      f"{slocc_equivalent(s, form.state) is not None}")
