"""The Vora-Value subspace similarity metric.

The Vora-Value of two sensor sets is one third of the trace of the product of
their orthogonal projectors: 1.0 means the camera spans exactly the observer's
subspace, 0.0 means the subspaces are orthogonal.  With A the camera, V an
orthonormal basis of the observer, G = A^T A and W = A^T V, that trace equals
trace(M^T W) with M = G^-1 W, the 3x3 transform minimizing the modified
Luther residual ||A M - V||^2_F; the residual is then 3 - trace(M^T W),
which is what lets a least-squares solver maximize the metric.
``basis_score`` evaluates this 3x3 form; it is the package's only Vora-Value
computation.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, RankDeficient
from .spectra import SensorSet, full_rank, orthonormalize, require_same_grid

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
    _, score, full = basis_score(np.ones(q.grid.count), q.channels, orthonormalize(x).basis)
    if not full:
        raise RankDeficient("sensor matrix is rank deficient (columns are numerically dependent)")
    return VoraScore(score)


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
    fq_t = fq.swapaxes(-1, -2)
    gram = fq_t @ fq
    full = full_rank(fq, gram)
    if not full.all():
        gram[~full] = np.eye(3)
    w = fq_t @ basis
    m = np.linalg.solve(gram, w)
    return m, (m * w).sum(axis=(-2, -1)) / 3.0, full
