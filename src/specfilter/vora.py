"""The Vora-Value subspace similarity metric.

The Vora-Value of two sensor sets is one third of the trace of the product of
their orthogonal projectors: 1.0 means the camera spans exactly the observer's
subspace, 0.0 means the subspaces are orthogonal.  With A the camera, V an
orthonormal basis of the observer, G = A^T A and W = A^T V, that trace equals
trace(M^T W) with M = G^-1 W, the 3x3 transform minimizing the modified
Luther residual ||A M - V||^2_F; the residual is then 3 - trace(M^T W),
which is what lets a least-squares solver maximize the metric.

Every Vora-Value ends in one 3x3 tail, ``_score``: rank guard, identity
substitution for a rank-deficient G, solve and score.  It calls the LAPACK
gufunc behind ``np.linalg.solve`` directly, as ``_solve``: the same bits in
under a third of the time (2.1 against 7.4 us per 3x3 solve on a 2-core host,
single-threaded OpenBLAS).  The wrapper's errstate only turns a singular
matrix into ``LinAlgError``.  After the identity substitution no singular G
reaches the solve, and ALS's Anderson step (``als._extrapolate``) calls
``_solve`` too, on normal equations its ridge keeps nonsingular.  Two routes
form G and W for a filtered camera A = diag(f) Q.  ``basis_score`` forms A
itself, or takes the A gradient ascent formed for its trial and reuses for
the gradient.  It serves gradient ascent, whose hot loop keeps its bits because its
runs are chaotic in them (see README), and ``vora_value``, every solver's
start and ``solution.finish``.
``moment_score`` forms G = P^T (f o f) and W = R^T f from the n x 9 tables
P = q (x) q and R = q (x) v of ``Moments``, built once per ALS solve.  It
serves the ALS sweeps and polish, and forms A only for a matrix whose rank the
determinant bound leaves undecided.  Swapped into gradient ascent on the 8
``design-ga`` cameras it moved the backtracking runs' iteration counts by
1.06x to 2.44x and final Vora-Values by up to 5e-4.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError
from .spectra import SensorSet, full_rank, orthonormalize, require_same_grid

# Round-off this small outside [0, 1] is clamped; anything larger is a bug.
_CLAMP = 1e-12

# The gufunc np.linalg.solve wraps, minus its singular-matrix errstate: _score
# puts the identity in place of every G that full_rank does not certify, and
# als._extrapolate's ridge keeps its systems nonsingular.
_solve = np.linalg._umath_linalg.solve


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
    """(1/3) trace(P{Q} P{X}) for two sensor sets on the same grid.

    Every ``SensorSet`` is rank 3 by construction, and ``basis_score`` of the
    unfiltered camera re-runs that same rank test, so its rank flag is not read.
    """
    require_same_grid(q.grid, x.grid)
    return VoraScore(basis_score(np.ones(q.grid.count), q.channels, orthonormalize(x).basis)[1])


def basis_score(
    f: np.ndarray, qc: np.ndarray, basis: np.ndarray, camera: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, Vora-Value, full rank) of the filtered camera A = diag(f) Q against an orthonormal basis.

    M = G^-1 W with G = A^T A and W = A^T V minimizes ||A M - V||^2_F, and
    trace(M^T W) / 3 is the Vora-Value of A: the 3x3 form of the projector
    trace, which optimizer hot loops call thousands of times.  ``f`` is one
    filter or a stack of them, one per row; results gain the same leading
    axis.  A rank-deficient A is solved against the identity instead of its
    Gram matrix, so its M and score are meaningless and only the rank flag
    counts.  ``camera``, when given, is A as the caller formed it,
    ``f[..., None] * qc``: gradient ascent forms each trial's A once, for
    this score and for the gradient at the trial it accepts.
    """
    fq = f[..., None] * qc if camera is None else camera
    fq_t = fq.swapaxes(-1, -2)
    return _score(fq_t @ fq, fq_t @ basis, fq)


class Moments(NamedTuple):
    """A camera Q and orthonormal basis V with their n x 9 tables P = q (x) q and R = q (x) v.

    Row i of P and R is the outer product of Q's row i with itself and with
    V's row i, flattened, so G = P^T (f o f) and W = R^T f are the Gram and
    cross terms of diag(f) Q, nine numbers each.
    """

    camera: np.ndarray
    basis: np.ndarray
    p: np.ndarray
    r: np.ndarray

    @classmethod
    def of(cls, qc: np.ndarray, basis: np.ndarray) -> "Moments":
        n = len(qc)
        return cls(qc, basis, (qc[:, :, None] * qc[:, None, :]).reshape(n, 9),
                   (qc[:, :, None] * basis[:, None, :]).reshape(n, 9))


class _FilteredCamera:
    """diag(f) Q, formed only for the stack index ``full_rank`` asks for."""

    def __init__(self, f: np.ndarray, qc: np.ndarray):
        self.f, self.qc = f, qc

    def __getitem__(self, index) -> np.ndarray:
        return self.f[index][..., None] * self.qc


def moment_score(f: np.ndarray, moments: Moments) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``basis_score`` of ``f`` against ``moments``' camera and basis, from the moment tables.

    Each filter's G and W are (1 x n) @ (n x 9) products, batched over the
    stack, so a row's bits do not depend on the stack it sits in; a 2-D
    (K x n) @ (n x 9) GEMM would block the sums differently per stack size.
    """
    shape = f.shape[:-1] + (3, 3)
    row = f[..., None, :]
    gram = ((row * row) @ moments.p).reshape(shape)
    return _score(gram, (row @ moments.r).reshape(shape), _FilteredCamera(f, moments.camera))


def _score(gram: np.ndarray, w: np.ndarray, camera) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, Vora-Value, full rank) from G, W and the camera ``full_rank`` falls back on."""
    full = full_rank(camera, gram)
    if gram.ndim == 2:
        gram = gram if full else np.eye(3)
    elif not full.all():
        gram[~full] = np.eye(3)
    m = _solve(gram, w, signature="dd->d")
    return m, np.add.reduce(m * w, axis=(-2, -1)) / 3.0, full
