"""Exact computations with modules over deformed wreath products of
preprojective algebras: reflection functors, cube complexes, and the
symplectic-reflection-algebra parameter dictionary."""

from .cyclotomic import Scalar, cyclotomic_polynomial, format_scalar, parse_scalar
from .errors import (
    EdgeLoopError, FormatError, NotGenericError, NotInSpanError,
    OrderMismatchError, ResourceLimitError, WreathqError,
)
from .linalg import Mat, intersect_kernels, kernel_basis, rank, rref, solve_in_span
from .quiver import (
    DimVector, Quiver, Weight, affine_data, dual_reflection, ringel_form,
    simple_reflection, symmetrized_form, validate_word,
)
from .symmetric import (
    Perm, RepMatrices, YoungDiagram, central_sum_invertible, contents,
    induce_rep, seminormal_rep,
)
from .modules import (
    Params, WreathModule, build_induced_zero_e, build_outer_tensor,
    check_intertwiner, direct_sum, graph_automorphism_transport,
    module_character, reorient_module, verify_relations,
)
from .reflection import (
    apply_functor_word, involution_witness, is_generic, is_generic_oracle,
    reflect_morphism, reflection_functor,
)
from .cubes import (
    Cube, cohomology, complex_from_cube, euler_characteristic, module_cube,
    module_cohomology,
)
from .sra import (
    GammaData, SRAParams, deformability_report, mckay_quiver_cyclic,
    recover_sra, translate_params,
)

__version__ = "0.1.0"
