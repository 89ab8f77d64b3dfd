"""Fidelity-based correlation of bipartite Gaussian states.

Covariance-matrix toolkit for a correlation measure defined as the largest
squared overlap distance a state can acquire under Gaussian unitaries on one
subsystem that leave that subsystem's reduced state invariant.  Includes the
exact two-mode closed form, one block closed form for every (n+m)-mode
partition, an upper bound, Gaussian channels with a post-channel closed form and
monotonicity checks, the symmetric squeezed thermal family with comparison
measures, and a JSON/CSV command-line interface.

The truncated-Fock validation oracle lives in ``nfg.fock``; it is test
support and intentionally not re-exported here.
"""

from .correlation import (
    GaussianChannel,
    MonotonicityReport,
    NfgResult,
    OptimizerConfig,
    apply_channel,
    check_monotonicity,
    nfg_after_channel_closed_form,
    nfg_closed_form,
    nfg_numeric,
    nfg_theta_objective,
    nfg_two_mode,
    nfg_upper_bound,
)
from .families import (
    SstsParams,
    SweepGrid,
    SweepRow,
    dg_ssts,
    nfg_ssts,
    nfg_ssts_limit,
    q_ssts,
    ssts,
    sweep,
    tmsv,
)
from .overlap import OverlapResult, c_squared, fidelity_f, overlap, purity
from .states import (
    GaussianState,
    GaussianUnitary,
    StandardFormParams,
    ValidationReport,
    WilliamsonDecomposition,
    apply_gaussian_unitary,
    blocks,
    is_symplectic,
    standard_form,
    state_from_params,
    symplectic_form,
    validate_cm,
    williamson,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianChannel",
    "GaussianState",
    "GaussianUnitary",
    "MonotonicityReport",
    "NfgResult",
    "OptimizerConfig",
    "OverlapResult",
    "SstsParams",
    "StandardFormParams",
    "SweepGrid",
    "SweepRow",
    "ValidationReport",
    "WilliamsonDecomposition",
    "apply_channel",
    "apply_gaussian_unitary",
    "blocks",
    "c_squared",
    "check_monotonicity",
    "dg_ssts",
    "fidelity_f",
    "is_symplectic",
    "nfg_after_channel_closed_form",
    "nfg_closed_form",
    "nfg_numeric",
    "nfg_ssts",
    "nfg_ssts_limit",
    "nfg_theta_objective",
    "nfg_two_mode",
    "nfg_upper_bound",
    "overlap",
    "purity",
    "q_ssts",
    "ssts",
    "standard_form",
    "state_from_params",
    "sweep",
    "symplectic_form",
    "tmsv",
    "validate_cm",
    "williamson",
]
