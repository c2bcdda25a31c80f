"""Numerical tolerances shared across the library.

Dense double-precision eigensolvers on the matrix sizes handled here
(dim <= 64) deliver residuals around 1e-13; the defaults below leave an
order of magnitude of slack so that exact identities tested against
round-off do not flicker.

The thresholds that decide verdicts are fields of one frozen
:class:`Tolerances` value, which the criteria, detectors and scenarios take
as ``tol`` and pass down; :data:`DEFAULT` holds the defaults.  The
structural checks below are plain constants.
"""

from dataclasses import dataclass

HERM_TOL = 1e-10
"""Hermiticity residual, relative to the Frobenius norm of the operator."""

TRACE_TOL = 1e-10
"""Allowed deviation of a density-matrix trace from 1."""

PROJ_TOL = 1e-9
"""Residual for projector idempotence, orthogonality and completeness."""

RECON_TOL = 1e-9
"""Residual for reconstructing an operator from its spectral data."""

CPTP_TOL = 1e-10
"""Trace-preservation residual allowed for a Kraus set."""


@dataclass(frozen=True)
class Tolerances:
    """The thresholds that verdicts depend on."""

    kernel_tol: float = 1e-10
    """Eigenvalue magnitude below which a cluster counts as part of the kernel."""

    psd_tol: float = 1e-9
    """Most negative eigenvalue tolerated in a state (clamped to 0 on read-out)."""

    decision_tol: float = 1e-9
    """Margin below which an inequality between traces is not called either way."""

    first_order_tol: float = 1e-9
    """Allowed magnitude for first-order traces that a criterion requires to vanish."""

    numeric_margin: float = 1e-8
    """Size (in bits) a numeric witness must exceed before a detector concludes."""


DEFAULT = Tolerances()


def default_cluster_tol(fro_norm: float) -> float:
    """Default eigenvalue clustering tolerance, scaled to the operator norm."""
    return 1e-9 * max(1.0, fro_norm)
