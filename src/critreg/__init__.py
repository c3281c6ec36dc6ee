"""Desk-scale verifiers for distortion machinery of interval actions.

The numpy-backed modules, `critreg.walks` and `critreg.smooth`, are not
re-exported here: `import critreg` and the exact kinds load no numpy.
"""

__version__ = "0.1.0"

from .boxes import (  # noqa: F401
    BoxSequence,
    SubdivisionTree,
    build_sequence,
    is_a_round,
    minimal_round_constant,
    sequence_multiplicity,
    vertical_subdivision,
)
from .concat import (  # noqa: F401
    ChainCertificate,
    build_chain,
    distortion_budget,
    find_good_segment_d2,
    lambda_prime,
    reach_vertical_section,
    verify_chain,
)
from .lattice import (  # noqa: F401
    Box,
    LengthFamily,
    Segment,
    geometric_family,
    symmetric_geometric_family,
    uniform_box_family,
)
from .nilpotent import (  # noqa: F401
    IntervalPacking,
    UnipotentMatrix,
    conjugacy_distortion_check,
    full_group_model,
    translation_model,
)
