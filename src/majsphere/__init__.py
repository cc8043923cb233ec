"""Symmetric multiqubit states as point multisets on the sphere.

The package represents permutation-symmetric n-qubit pure states by the n
roots of their characteristic polynomial on the extended complex plane
(equivalently n points on the unit sphere), realizes the induced action of
single-qubit invertible operations as Moebius transformations, decides
LOCC/SLOCC/degeneracy-class equivalence with explicit witnesses, and
computes canonical representative states for up to five qubits.
"""

from .errors import DomainError, NumericalError, ResourceLimitError
from .plane import (
    INFINITY,
    ExtendedComplex,
    SpherePoint,
    as_point,
    chordal_distance,
    from_sphere,
    to_sphere,
)
from .moebius import (
    AffineMap,
    Decomposition,
    MapClass,
    MoebiusMap,
    classify_map,
    cross_ratio,
    decompose_affine,
    from_three_points,
    is_projective_unitary,
    map_from_doc,
    map_to_doc,
    translation_view,
)
from .symstate import (
    RootMultiset,
    SymmetricState,
    apply_symmetric,
    dicke,
    fidelity,
    majorana_polynomial,
    majorana_roots,
    roots_from_doc,
    roots_to_doc,
    state_from_doc,
    state_from_roots,
    state_to_doc,
)
from .classify import (
    DEFAULT_TOL,
    Analysis,
    CircleSignature,
    ClusteredRoots,
    DegeneracyConfiguration,
    EquivalenceWitness,
    analyze,
    circle_signature,
    cocircularity_witness,
    cross_ratio_fingerprint,
    degeneracy_configuration,
    fingerprints_intersect,
    locc_equivalent,
    slocc_equivalent,
)
from .canonical import (
    CanonicalForm,
    canonicalize,
    family_state_4,
    family_state_5,
    family_state_5_generic,
    form_to_doc,
    param_to_t,
    t_to_param,
)
from .oracle import (
    DenseState,
    apply_tensor,
    equal_up_to_scale,
    expand_full,
    symmetrize,
)

__version__ = "0.1.0"
