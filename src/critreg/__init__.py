"""Desk-scale verifiers for distortion machinery of interval actions.

Three modules are not re-exported here, so `import critreg` does not load
them: the numpy-backed `critreg.walks` and `critreg.smooth`, which only the
lemma1 and dynamics kinds use, and `critreg.nilpotent`, which only the
identity kind uses.  Import them by name.  Every other kind loads no numpy.
"""

__version__ = "0.1.0"

from .boxes import (  # noqa: F401
    BoxSequence,
    SubdivisionTree,
    build_sequence,
    minimal_round_constant,
    sequence_multiplicity,
    vertical_subdivision,
)
from .concat import (  # noqa: F401
    ChainCertificate,
    build_chain,
    distortion_budget,
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
)
