"""Littlewood-Richardson tableaux, pictures, and the bijections between them.

The package enumerates two families of Littlewood-Richardson tableaux (the
classical one on the shape W, and the two-family one on the skew shape Z/Y,
whose members hold plain letters; gl(m,n) enters only through the hook test
in ``lr_coefficient``), enumerates admissible pictures between skew
diagrams, and applies the explicit mutually inverse maps relating all of
these. Everything is backed by exhaustive enumeration, so each identity the
library claims can be checked on concrete shapes via
:mod:`lrpictures.sweeps` or the CLI.
"""

from .diagram import (
    SkewShape,
    add_box,
    add_boxes,
    as_partition,
    first_invalid_step,
    hook_partitions_up_to,
    is_hook,
    partition_contains,
    partitions_of,
    partitions_up_to,
    subdiagrams,
)
from .tableau import (
    Tableau,
    bar,
    content,
    enumerate_glmn,
    enumerate_ssyt,
    from_rows,
    glmn_weight,
    is_glmn_semistandard,
    is_semistandard,
    p_index,
)
from .reading import (
    AdmissibleOrder,
    far_eastern,
    is_admissible,
    is_lattice_permutation,
    middle_eastern,
    random_admissible_order,
    reading,
)
from .picture import Picture, enumerate_pictures, is_admissible_picture, omega
from .lr import (
    LRCoefficient,
    companion_tableau,
    glmn_lr_tableaux,
    glr_lr_tableaux,
    is_glmn_lr_tableau,
    is_glr_lr_tableau,
    lr_coefficient,
    picture_to_tableau,
    tableau_to_picture,
)
from .crystal import (
    is_highest_weight,
    lower,
    raise_,
    verify_decomposition_glmn,
    verify_decomposition_glr,
    weight,
)

__version__ = "0.1.0"

# Every code path is plain Python; the flag stays for tools that report it.
USING_NUMBA = False

__all__ = [
    "USING_NUMBA",
    "SkewShape",
    "add_box",
    "add_boxes",
    "as_partition",
    "first_invalid_step",
    "hook_partitions_up_to",
    "is_hook",
    "partition_contains",
    "partitions_of",
    "partitions_up_to",
    "subdiagrams",
    "Tableau",
    "bar",
    "content",
    "enumerate_glmn",
    "enumerate_ssyt",
    "from_rows",
    "glmn_weight",
    "is_glmn_semistandard",
    "is_semistandard",
    "p_index",
    "AdmissibleOrder",
    "far_eastern",
    "is_admissible",
    "is_lattice_permutation",
    "middle_eastern",
    "random_admissible_order",
    "reading",
    "Picture",
    "enumerate_pictures",
    "is_admissible_picture",
    "omega",
    "LRCoefficient",
    "companion_tableau",
    "glmn_lr_tableaux",
    "glr_lr_tableaux",
    "is_glmn_lr_tableau",
    "is_glr_lr_tableau",
    "lr_coefficient",
    "picture_to_tableau",
    "tableau_to_picture",
    "is_highest_weight",
    "lower",
    "raise_",
    "verify_decomposition_glmn",
    "verify_decomposition_glr",
    "weight",
    "__version__",
]
