"""Fidelity-based correlation of bipartite Gaussian states.

Covariance-matrix toolkit for a correlation measure defined as the largest
squared overlap distance a state can acquire under Gaussian unitaries on one
subsystem that leave that subsystem's reduced state invariant.  Includes the
exact two-mode closed form, one block closed form for every (n+m)-mode
partition, an upper bound, Gaussian channels with a post-channel closed form and
monotonicity checks, the symmetric squeezed thermal family with comparison
measures, and a JSON/CSV command-line interface.

The public names are those of the ``__all__`` lists of `nfg.states`,
`nfg.overlap`, `nfg.correlation` and `nfg.families`, republished here.  The
truncated-Fock validation oracle lives in ``nfg.fock``; it is test support
and intentionally not re-exported here.
"""

from . import correlation as _correlation
from . import families as _families
from . import overlap as _overlap
from . import states as _states

# The module imports come first: once `from .overlap import *` has bound
# `overlap` to the function, `from . import overlap` would return the function.
from .correlation import *  # noqa: F403
from .families import *  # noqa: F403
from .overlap import *  # noqa: F403
from .states import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(_states.__all__ + _overlap.__all__ + _correlation.__all__ + _families.__all__)
