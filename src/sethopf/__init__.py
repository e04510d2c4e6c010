"""Exact combinatorics of set compositions: the composition Hopf algebra,
its primitive Lie algebra with Dynkin elements over adjoint-arrangement
cells, Steinmann arrows, and causal product constructions on a symbolic
word-algebra model.
"""

from .compositions import (
    Composition,
    comp,
    compositions_of,
    coarsens,
    concat,
    deshuffle,
    fubini,
    labelset,
    one_lump,
    opposite,
    restrict,
    zie_dimension,
)
from .scalars import QI
from .lincomb import LinComb
from .linalg import kernel_basis, rank
from .hopf import (
    SigmaElem,
    antipode,
    basis_elem,
    delta_split,
    h_elem,
    is_primitive,
    mu,
    primitive_part_basis,
    q_elem,
    takeuchi_antipode,
    to_h,
    to_q,
    unit_elem,
)
from .hadamard import hopf_power, tits
from .cells import (
    Cell,
    Tree,
    commutator,
    dynkin,
    dynkin_rank,
    dynkin_tits_factorization,
    enumerate_cells,
    glz_check,
    is_cell,
    leaf,
    node,
    ruelle_check,
    steinmann_quadruples,
    steinmann_relation_holds,
    tree_to_primitive,
)
from .arrows import (
    advanced_element,
    arrow_cell_down,
    arrow_cell_up,
    arrow_down,
    arrow_up,
    retarded_element,
    u_ab,
)
from .series import (
    SigmaSeries,
    TruncSeries,
    convolve,
    eval_system,
    formal_diff,
    homomorphism_check,
    is_group_like,
    perturb_arrow,
    perturb_coderivation,
    polynomial_system,
    t_exponential,
    universal_series,
    unit_series,
    word_product,
)
from .causal import (
    CAUSAL_SYSTEM,
    CausalModel,
    TimedObservable,
    bogoliubov_check,
    causal_factorization_check,
    generalized_T,
    generating_function,
    interacting_observable,
    respects,
    retarded_product,
    smatrix,
    time_ordered,
    z_factorization_check,
)

__version__ = "0.1.0"
