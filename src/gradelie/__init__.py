"""gradelie: exact structure theory for graded matrix Lie algebras.

Everything structural runs over the Gaussian rationals with no rounding;
floating point is confined to eigenvalue estimation, and every numeric guess
is re-verified exactly before it affects a verdict.
"""

from .scalars import GaussianRational, Q, format_scalar, parse_scalar
from .matrices import (
    Mat,
    bracket,
    is_nilpotent_exact,
    jordan_product,
    to_numeric,
    trace_product,
)
from .subspaces import (
    Subspace,
    canonicalize,
    column_kernel,
    mat_inverse,
    mat_span,
    span_basis_mats,
    subspace_intersect,
    subspace_sum,
)
from .groups import FinAbGroup, cyclic_pair, regular_rep
from .lie import (
    LieAlgebra,
    SeriesReport,
    ad_matrix,
    cartan_test,
    derived_series,
    is_engel_element,
    is_ideal,
    is_nil_subspace,
    is_nilpotent_lie,
    is_scalar_set,
    is_solvable,
    lie_closure,
    lower_central_series,
    require_closed,
)
from .grading import (
    AmpliationResult,
    GradingError,
    SubgradedAlgebra,
    ampliate,
    check_maptri,
    nonzero_opposite_bracket_ideal,
    verify_subgrading,
)
from .spectral import (
    Flag,
    IrreducibilityVerdict,
    assoc_closure_dim,
    decide_irreducible,
    triangularize_solvable,
    verify_flag,
)
from .structures import (
    JordanIdealChain,
    MatSubspace,
    is_jordan_algebra,
    is_jordan_ideal,
    is_lie_n_product_system,
    is_lie_triple_system,
    jordan_ideal_chain,
    jordan_to_z2,
    m_bracket_powers,
    triple_envelope,
    triple_to_z2,
)
from .documents import (
    AlgebraDocument,
    DocumentError,
    document_from,
    dumps_document,
    loads_document,
    materialize,
)
from .examples import EXAMPLE_NAMES, build_example
from .checks import CheckReport
from .campaigns import CampaignResult, run_campaign

__version__ = "0.1.0"
