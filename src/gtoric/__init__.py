"""Groupoid toric codes: lattice model construction, exact ground-state
degeneracy via a qudit stabilizer engine, and dense-matrix cross-validation.
"""

from .groupoids import (
    AlgebraElement,
    Groupoid,
    ValidationReport,
    central_identity_sum,
    make_isotropy_z2_groupoid,
    make_sis_groupoid,
    validate_axioms,
)
from .lattice import Lattice, MissingSiteError, Site, parse_site
from .paulis import (
    OperatorSum,
    PauliParseError,
    PauliString,
    lattice_string,
    pauli_from_text,
    pauli_to_text,
    symplectic_phase,
)
from .catalog import (
    HamiltonianSpec,
    build_hamiltonian,
    decode_edge_state,
    encode_edge_state,
    face_projector_family,
    left_action,
    qubit_image_of_action,
    right_action,
    vertex_projector_family,
)
from .oracle import (
    construct_ground_state,
    ground_space_dimension,
    measure_syndrome,
    trace_product,
)
from .stabilizer import (
    PathSpec,
    StabilizerModel,
    Syndrome,
    confinement_profile,
    gsd,
    is_logical,
    logical_basis,
    logically_equivalent,
    string_operator,
    syndrome,
)
from .commutation import FaceVertexSpace, check_corner_commutation

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
