"""Independent reference implementations the tests check the package against.

Everything here deliberately avoids the package's linear-algebra paths:
inverses come from cofactor expansion, projections from explicit
normal-equation assembly, the Vora-Value from its projector definition
rather than the package's 3x3 form, and the global-optimum search from
vectorized random sampling plus coordinate scans over raw arrays.  The
exceptions are the ``*_reference`` copies of optimizer hot-loop code as first
written, which pin that code's output bits rather than check its mathematics;
``filtered_camera_sweep``, an ALS sweep taken on the filtered camera
itself, which bounds the round-off of the package's moment route; and
``plain_als_sweep``, the paper's unaccelerated ALS loop on the package's own
half-steps, which the accelerated loop must never do worse than; and
``plain_ga_ascend``, gradient ascent's loop as first written on the
reference kernels, which pins the whole run's bits; and
``strip_every_cell_parse``, the CSV parser as first written, which strips
every cell before converting it and pins the parser's tables and errors.
``classic_luther_als`` is the method the paper improves on, not a reference
for the package: it fits the colour matching functions themselves.
"""

from fractions import Fraction

import numpy as np

from specfilter.als import _filter
from specfilter.errors import ParseError, RankDeficient, ShapeError
from specfilter.gradient import INITIAL_STEP, MIN_STEP, SHRINK, SUFFICIENT_INCREASE
from specfilter.ingest import SpectralTable, _decode, _lines
from specfilter.solution import MONOTONE_SLACK, Stop
from specfilter.spectra import RANK_TOLERANCE, apply_filter, orthonormalize, rank_ratio, require_same_grid
from specfilter.vora import VoraScore, basis_score, moment_score, vora_value

CAPPED, CONVERGED, RANK_LOSS = Stop.CAPPED, Stop.CONVERGED, Stop.RANK_LOSS


def cofactor_inverse_3x3(m):
    """Inverse of a 3x3 matrix by cofactor expansion (adjugate over determinant)."""
    m = np.asarray(m, dtype=float)
    cof = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * (minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0])
    det = m[0, 0] * cof[0, 0] + m[0, 1] * cof[0, 1] + m[0, 2] * cof[0, 2]
    return cof.T / det


def projector(s):
    """Orthogonal projector s (s^T s)^-1 s^T onto the column space of an n-by-3 matrix.

    The 3x3 Gram system is solved by LU factorization with partial pivoting
    rather than an explicit inverse.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[1] != 3 or s.shape[0] < 3:
        raise ShapeError(f"projector needs an n-by-3 matrix with n >= 3, got {s.shape}")
    if not rank_ratio(s) > RANK_TOLERANCE:
        raise RankDeficient("projector input is rank deficient (columns are numerically dependent)")
    return s @ np.linalg.solve(s.T @ s, s.T)


def vora_by_projector(q, x):
    """Vora-Value by its definition, (1/3) trace(P{Q} P{X}), for two sensor sets on one grid."""
    require_same_grid(q.grid, x.grid)
    return VoraScore(np.trace(projector(q.channels) @ projector(x.channels)) / 3.0)


def luther_residual(f, q, m, v):
    """Squared Frobenius norm of diag(f) Q M - V for a curve, sensor set, correction and basis."""
    require_same_grid(f.grid, q.grid, v.grid)
    deviation = (f.values[:, None] * q.channels) @ m.m - v.basis
    return float(np.sum(deviation * deviation))


def residual_identity_check(f, q, x):
    """Both sides of the residual/Vora-Value identity, computed by different routes.

    Returns ``(lhs, rhs)`` where lhs = ||(P{FQ} - I) V||^2_F, the modified
    Luther residual minimized over the 3x3 transform, taken here with an
    explicit projector, and rhs = 3 - 3 * vora_value(FQ, X), the package's
    score.  The two agree to round-off for any full-rank filtered camera.
    """
    require_same_grid(f.grid, q.grid, x.grid)
    filtered = apply_filter(f, q)
    basis = orthonormalize(x).basis
    deviation = projector(filtered.channels) @ basis - basis
    lhs = float(np.sum(deviation * deviation))
    rhs = 3.0 - 3.0 * vora_value(filtered, x)
    return lhs, rhs


def projector_by_cofactor(s):
    """Orthogonal projector via explicit Gram inversion by cofactors."""
    s = np.asarray(s, dtype=float)
    return s @ cofactor_inverse_3x3(s.T @ s) @ s.T


def batched_vora(filters, camera, observer):
    """Vora-Value of diag(f) @ camera against observer for each row of ``filters``.

    Independent scoring route: orthonormalizes the observer with its own QR
    and evaluates trace(G^-1 W W^T)/3 slice by slice with stacked solves.
    Rank-deficient slices score -inf.
    """
    basis, _ = np.linalg.qr(np.asarray(observer, dtype=float))
    a = filters[:, :, None] * camera[None, :, :]
    singular = np.linalg.svd(a, compute_uv=False)
    ok = singular[:, -1] > 1e-10 * singular[:, 0]
    gram = a.transpose(0, 2, 1) @ a
    gram[~ok] = np.eye(3)
    w = a.transpose(0, 2, 1) @ basis
    values = np.einsum("kij,kij->k", np.linalg.solve(gram, w), w) / 3.0
    return np.where(ok, values, -np.inf)


def basis_score_reference(f, qc, basis):
    """``vora.basis_score`` as first written: module-level numpy calls and an SVD rank flag.

    The package's version must match it bit for bit.  Each matrix's flag is
    ``rank_ratio(a) > RANK_TOLERANCE``, not ``full_rank``'s determinant bound.
    """
    fq = f[..., None] * qc
    fq_t = np.swapaxes(fq, -1, -2)
    gram = fq_t @ fq
    full = np.array([rank_ratio(a) > RANK_TOLERANCE for a in fq.reshape(-1, *qc.shape)])
    full = full.reshape(fq.shape[:-2])
    if not full.all():
        gram[~full] = np.eye(3)
    w = fq_t @ basis
    m = np.linalg.solve(gram, w)
    return m, np.sum(m * w, axis=(-2, -1)) / 3.0, full


def filtered_camera_sweep(f, qc, vb):
    """One ALS sweep from ``f`` taken on the filtered camera A = diag(f) Q itself.

    Returns (M, Vora-Value, next filter): M = G^-1 W from G = A^T A and
    W = A^T V, and the row-form filter half-step from M (degenerate rows are
    not pinned).  ``f`` is one filter or a stack.  A tolerance oracle for the
    package's moment route, which sums G and W in another order.
    """
    a = f[..., None] * qc
    a_t = np.swapaxes(a, -1, -2)
    w = a_t @ vb
    m = np.linalg.solve(a_t @ a, w)
    qm = qc @ m
    return m, np.sum(m * w, axis=(-2, -1)) / 3.0, np.sum(qm * vb, axis=-1) / np.sum(qm * qm, axis=-1)


def plain_als_sweep(initial, moments, epsilon, max_iterations):
    """Plain ALS from each row of ``initial`` in lockstep, as the paper sweeps: no extrapolation.

    Each sweep takes the filter half-step from every live row's transform
    and scores it with ``moment_score``; the starts are scored by
    ``basis_score``.  A row stops once a sweep gains less than ``epsilon``
    (converged), at ``max_iterations`` (capped), or on rank loss; a
    full-rank sweep that lowers a Vora-Value by more than ``MONOTONE_SLACK``
    raises ``AssertionError``.

    Returns ``(history, final, stop, outcome)``: per sweep i (0 is the start)
    the rows it swept with their transforms and Vora-Values for their
    sweep-i filters, and per row its last Vora-Value, the sweep it stopped
    at and why.
    """
    qc, vb = moments.camera, moments.basis
    m, score, full = basis_score(initial, qc, vb)
    rows = np.arange(len(initial))
    history = [(rows, m, score)]
    final, stop = score.copy(), np.zeros(len(initial), dtype=int)
    outcome = np.where(full, CAPPED, RANK_LOSS)
    rows, m, score = rows[full], m[full], score[full]
    for i in range(1, max_iterations + 1):
        if not rows.size:
            break
        m, swept, full = moment_score(_filter(qc, m, vb)[0], moments)
        delta, score = swept - score, swept
        history.append((rows, m, score))
        assert not np.any(full & (delta < -MONOTONE_SLACK)), f"plain ALS dropped at sweep {i}"
        going = full & ~(delta < epsilon)
        if not going.all():
            done = rows[~going]
            outcome[done] = np.where(full[~going], CONVERGED, RANK_LOSS)
            final[done], stop[done] = score[~going], i
            rows, m, score = rows[going], m[going], score[going]
    else:
        final[rows], stop[rows] = score, max_iterations
    return history, final, stop, outcome


def exact_row_form_filter(qc, m, vb, degenerate_norm):
    """The filter half-step (QM)_i . V_i / (QM)_i . (QM)_i in exact rational arithmetic.

    Each entry is the correctly rounded value for the given float inputs; a
    row whose exact (QM)_i . (QM)_i is below ``degenerate_norm`` is pinned to 0.
    """
    out = []
    for q, v in zip(qc.tolist(), vb.tolist()):
        qm = [sum(Fraction(q[k]) * Fraction(m[k, j]) for k in range(3)) for j in range(3)]
        numerator = sum(a * Fraction(b) for a, b in zip(qm, v))
        denominator = sum(a * a for a in qm)
        out.append(0.0 if denominator < Fraction(degenerate_norm) else float(numerator / denominator))
    return np.array(out)


def gradient_arrays_reference(f, qc, vb, m):
    """``gradient._gradient_arrays`` as first written, with ``np.sum``."""
    c = (vb - (f[:, None] * qc) @ m) @ m.T
    return (2.0 / 3.0) * np.sum(qc * c, axis=1)


def plain_ga_ascend(f, qc, vb, fixed_step, epsilon, max_iterations):
    """One gradient-ascent run from filter ``f`` as first written, on the reference kernels.

    Every trial is scored by ``basis_score_reference`` and every gradient taken
    by ``gradient_arrays_reference``; the step rule (backtracking, or
    ``fixed_step`` when given) and the stopping rule are the package's.
    Returns ``(filters, vora_values, trials, converged)``: the T x n iterates,
    their Vora-Values and the number of trial filters scored after the start.
    """
    m, score, full = basis_score_reference(f, qc, vb)
    if not full:
        raise RankDeficient("initial filter leaves the camera rank deficient (iteration 0)")
    score = float(score)
    scores, filters = [score], [f]
    converged, trials = False, 0
    for i in range(1, max_iterations + 1):
        grad = gradient_arrays_reference(f, qc, vb, m)
        grad_norm_sq = float(grad @ grad)
        if fixed_step is not None:
            candidate = f + fixed_step * grad
            new_m, new_score, full = basis_score_reference(candidate, qc, vb)
            trials += 1
            if not full:
                raise RankDeficient(f"filter lost a camera channel at iteration {i}")
            new_score = float(new_score)
            if new_score < score:
                converged = i > 1
                break
        else:
            step, candidate = INITIAL_STEP, None
            while step >= MIN_STEP:
                trial = f + step * grad
                trial_m, trial_score, full = basis_score_reference(trial, qc, vb)
                trials += 1
                if full and trial_score >= score + SUFFICIENT_INCREASE * step * grad_norm_sq:
                    candidate, new_m, new_score = trial, trial_m, float(trial_score)
                    break
                step *= SHRINK
            if candidate is None:
                converged = True
                break
        f, m = candidate, new_m
        scores.append(new_score)
        filters.append(f)
        delta = new_score - score
        score = new_score
        if delta < epsilon:
            converged = True
            break
    return np.array(filters), np.array(scores), trials, converged


def random_search_best(camera, observer, rng, samples=100_000):
    """Best Vora-Value found by dense random search plus coordinate refinement.

    Draws ``samples`` filters uniform in (0, 1], keeps the best, then runs
    cyclic per-wavelength scans with a shrinking radius until no 21-point scan
    improves and the radius is below 1e-7.
    """
    n = camera.shape[0]
    candidates = 1.0 - rng.random((samples, n))
    scores = batched_vora(candidates, camera, observer)
    best_index = int(np.argmax(scores))
    best = candidates[best_index].copy()
    best_score = float(scores[best_index])

    radius = 0.5
    for _ in range(400):
        improved = False
        for i in range(n):
            trials = np.repeat(best[None, :], 21, axis=0)
            trials[:, i] = best[i] + np.linspace(-radius, radius, 21)
            trial_scores = batched_vora(trials, camera, observer)
            j = int(np.argmax(trial_scores))
            if trial_scores[j] > best_score:
                best_score = float(trial_scores[j])
                best = trials[j].copy()
                improved = True
        if not improved:
            radius *= 0.5
            if radius < 1e-7:
                break
    return best_score, best


def classic_luther_als(camera, observer, tolerance=1e-10, max_iterations=100_000):
    """Classic Luther optimization by ALS: the filter f minimizing ||diag(f) Q M - X||_F over f and a 3x3 M.

    Unlike the package's orthonormal Luther method, M is solved against the
    colour matching functions X themselves, then f row by row.  From f = 1,
    sweeps stop once one lowers the residual by less than ``tolerance`` times
    its value.  Returns f scaled to peak 1, as the package reports its filters.
    """
    f = np.ones(len(camera))
    residual = np.inf
    for _ in range(max_iterations):
        a = f[:, None] * camera
        qm = camera @ np.linalg.solve(a.T @ a, a.T @ observer)
        f = np.sum(qm * observer, axis=1) / np.sum(qm * qm, axis=1)
        previous, residual = residual, float(np.sum((f[:, None] * qm - observer) ** 2))
        if previous - residual < tolerance * previous:
            break
    return f / f.max()


def central_difference_gradient(objective, f, h=1e-6):
    """Central finite differences of a scalar objective at f, one entry at a time."""
    f = np.asarray(f, dtype=float)
    grad = np.empty_like(f)
    for i in range(f.size):
        up = f.copy()
        down = f.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (objective(up) - objective(down)) / (2.0 * h)
    return grad


def iterations_to_reach(values, target):
    """Index of the first trace entry at or above target, or a huge sentinel."""
    indices = np.nonzero(np.asarray(values) >= target)[0]
    return int(indices[0]) if indices.size else 10**9


def strip_every_cell_parse(data):
    """``parse_spectral_csv`` as first written: every cell is stripped, then converted on its own."""
    header = None
    rows = []
    row_lines = []
    width = None
    for lineno, line in _lines(_decode(data)):
        cells = [cell.strip() for cell in line.split(",")]
        if width is None:
            if len(cells) < 2:
                raise ParseError("need a wavelength column plus at least one data column", lineno)
            try:
                float(cells[0])
            except ValueError:
                header = cells
                width = len(cells)
                continue
            width = len(cells)
        if len(cells) != width:
            raise ParseError(f"expected {width} cells, got {len(cells)}", lineno)
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            raise ParseError(f"non-numeric cell in {line!r}", lineno) from None
        row_lines.append(lineno)

    if not rows:
        raise ParseError("no data rows")
    table = np.array(rows)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite cell (nan or inf)", row_lines[int(np.argmin(finite))])
    keys = table[:, 0]
    backward = np.flatnonzero(keys[1:] <= keys[:-1])
    if backward.size:
        i = int(backward[0]) + 1
        raise ParseError(
            f"first column must be strictly increasing; {keys[i]:g} follows {keys[i - 1]:g}",
            row_lines[i],
        )
    if header is None:
        header = ["wavelength"] + [f"col{j}" for j in range(1, width)]
    return SpectralTable(keys, tuple(header[1:]), table[:, 1:], header[0])
