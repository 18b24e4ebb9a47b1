"""Exact computation in the Grassmann algebra and its automorphism group."""

from .algebra import (
    DimensionMismatchError,
    GrassmannElement,
    component,
    even_part,
    format_element,
    involution,
    invert_unit,
    odd_part,
    parse_element,
    substitute_zero,
)
from .dims import dim_by_coordinates, dim_formula
from .endo import (
    Endomorphism,
    JacobianData,
    NotInvertibleError,
    NotUnipotentError,
    ParityError,
    coordinate_shift,
    format_endomorphism,
    identity_endo,
    inner,
    is_automorphism,
    linear_endo,
    parse_endomorphism,
    scaling_endo,
    shift_endo,
)
from .groups import (
    GroupId,
    MembershipError,
    NoPreimageError,
    decompose_gamma,
    decompose_layers,
    decompose_omega_gamma_linear,
    decompose_sigma_prime,
    decompose_unipotent,
    enumerate_generators,
    jacobian_preimage,
    member,
    parse_group_id,
)
from .linsolve import (
    CoordinateSplit,
    SolvabilityError,
    coordinate_split,
    kernel_split,
    layer_split,
    min_avoidance,
    solve_partial_system,
    solve_xi_system,
)
from .rings import GF, QQ, NotAUnitError, PrimeField, RationalField, ring_from_name
from .skewcalc import (
    apply_partial_word,
    coordinate_projection,
    phi_projection,
    skew_partial,
    taylor_reconstruct,
)

__version__ = "0.1.0"
