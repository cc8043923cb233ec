"""States <-> roots <-> sphere points: the basic correspondence.

A permutation-symmetric n-qubit state is equivalent to a degree-<=n complex
polynomial, whose n roots (with roots at infinity for degree drops) are n
points on the unit sphere.  This script walks through the correspondence on
a few familiar states.
"""


from majsphere import (
    SymmetricState,
    dicke,
    fidelity,
    majorana_polynomial,
    majorana_roots,
    state_from_roots,
    to_sphere,
)

print("== Dicke basis states ==")
w3 = dicke(3, 1)
print(f"|S_1> of 3 qubits (the W state): amplitudes {w3.amps}")
roots = majorana_roots(w3)
print(f"its roots: {roots.finite_roots} plus {roots.infinity_count} at infinity")
print("i.e. two points at the north pole, one at the south pole\n")

print("== GHZ state ==")
ghz = SymmetricState([1, 0, 0, 1])
coeffs = majorana_polynomial(ghz)
print(f"polynomial coefficients (c_0..c_3): {coeffs}")
print("which is proportional to z^3 - 1, so the roots are the cube roots of unity:")
for z in majorana_roots(ghz).finite_roots:
    sp = to_sphere(z)
    print(f"  root {z:+.4f} -> sphere point theta={sp.theta:.4f}, phi={sp.phi:.4f}")
print("an equilateral triangle on the equator\n")

print("== Reconstruction ==")
rebuilt = state_from_roots(majorana_roots(ghz))
print(f"state_from_roots(majorana_roots(ghz)) overlap: {fidelity(ghz, rebuilt):.15f}")

print("\n== Degree drop = points at the north pole ==")
for n, k in ((4, 0), (4, 2), (4, 4)):
    r = majorana_roots(dicke(n, k))
    print(
        f"|S_{k}> of {n} qubits: {len(r.finite_roots)} roots at 0, "
        f"{r.infinity_count} at infinity"
    )
