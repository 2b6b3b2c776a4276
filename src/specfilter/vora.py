"""The Vora-Value subspace similarity metric and the modified Luther residual.

The Vora-Value of two sensor sets is one third of the trace of the product of
their orthogonal projectors: 1.0 means the camera spans exactly the observer's
subspace, 0.0 means the subspaces are orthogonal.  The residual of the
modified Luther condition ||diag(f) Q M - V||^2_F (V an orthonormal basis of
the observer) is affinely related to the Vora-Value once M is optimal, which
is what lets a least-squares solver maximize the metric;
``residual_identity_check`` computes both sides of that identity
independently so callers can verify it numerically.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError
from .spectra import (
    CorrectionMatrix,
    OrthoBasis,
    SensorSet,
    SpectralCurve,
    apply_filter,
    full_rank,
    orthonormalize,
    projector,
    require_same_grid,
)

# Round-off this small outside [0, 1] is clamped; anything larger is a bug.
_CLAMP = 1e-12


class VoraScore(float):
    """A Vora-Value: a float validated to lie in [0, 1].

    Excursions beyond the interval by at most 1e-12 are treated as round-off
    and clamped; larger ones raise ``ConsistencyError``.
    """

    def __new__(cls, value: float) -> "VoraScore":
        v = float(value)
        if not np.isfinite(v) or v < -_CLAMP or v > 1.0 + _CLAMP:
            raise ConsistencyError(f"Vora-Value {v!r} is outside [0, 1] beyond round-off")
        return super().__new__(cls, min(max(v, 0.0), 1.0))


def vora_value(q: SensorSet, x: SensorSet) -> VoraScore:
    """(1/3) trace(P{Q} P{X}) for two full-rank sensor sets on the same grid."""
    require_same_grid(q.grid, x.grid)
    return VoraScore(np.trace(projector(q.channels) @ projector(x.channels)) / 3.0)


def basis_score(
    f: np.ndarray, qc: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, Vora-Value, full rank) of the filtered camera A = diag(f) Q against an orthonormal basis.

    M = G^-1 W with G = A^T A and W = A^T V minimizes ||A M - V||^2_F, and
    trace(M^T W) / 3 is the Vora-Value of A: the 3x3 form of the projector
    trace, which optimizer hot loops call thousands of times.  ``f`` is one
    filter or a stack of them, one per row; results gain the same leading
    axis.  A rank-deficient A is solved against the identity instead of its
    Gram matrix, so its M and score are meaningless and only the rank flag
    counts.
    """
    fq = f[..., None] * qc
    fq_t = np.swapaxes(fq, -1, -2)
    gram = fq_t @ fq
    full = full_rank(fq, gram)
    gram[~full] = np.eye(3)
    w = fq_t @ basis
    m = np.linalg.solve(gram, w)
    return m, np.sum(m * w, axis=(-2, -1)) / 3.0, full


def luther_residual(
    f: SpectralCurve, q: SensorSet, m: CorrectionMatrix, v: OrthoBasis
) -> float:
    """Squared Frobenius norm of diag(f) Q M - V."""
    require_same_grid(f.grid, q.grid, v.grid)
    deviation = (f.values[:, None] * q.channels) @ m.m - v.basis
    return float(np.sum(deviation * deviation))


def residual_identity_check(
    f: SpectralCurve, q: SensorSet, x: SensorSet
) -> tuple[float, float]:
    """Both sides of the residual/Vora-Value identity, computed independently.

    Returns ``(lhs, rhs)`` where lhs = ||(P{FQ} - I) V||^2_F, the modified
    Luther residual minimized over the 3x3 transform, and
    rhs = 3 - 3 * vora_value(FQ, X).  The two agree to round-off for any
    full-rank filtered camera.
    """
    require_same_grid(f.grid, q.grid, x.grid)
    filtered = apply_filter(f, q)
    basis = orthonormalize(x).basis
    deviation = projector(filtered.channels) @ basis - basis
    lhs = float(np.sum(deviation * deviation))
    rhs = 3.0 - 3.0 * vora_value(filtered, x)
    return lhs, rhs
