"""Independent brute-force oracles shared by the unit and acceptance tests.

gaussian and score are the scalar forms of the Gaussian kernel and of the
fuzzy score, one value at a time: the references for
ifutsvm.kernels.gram_values and ifutsvm.membership.score_vector.
scalar_cyclic_sweep is the box-QP sweep written as a plain scalar loop,
active_set_polish is the refinement on the free block written with numpy and
scipy's LAPACK, and full_check_box_qp is the solver loop around them with the
full KKT vector formed after every sweep: together they are the reference that
the C solver behind ifutsvm.qp.solve_box_qp, with its one-coordinate test,
must match bit for bit.  The box-QP oracle never touches the solver's update algebra: it only
evaluates the objective on grid candidates.  For k <= 2 it enumerates the
full 0.001-step grid; for larger k it alternates exhaustive single-coordinate
scans with exhaustive local two-coordinate scans until no grid move improves.
Every scan axis is clipped to its box, so each candidate is feasible.

kkt_residual is the projected-gradient residual that certifies a box-QP
solution.  whole_duals builds both duals of a lattice point whole and
primal_value the primal objective at a plane, the references for
ifutsvm.models.duality_gaps; reference_plane_solve is the solve stage of one
plane formed in numpy on those duals, the reference for the one C call per
plane behind ifutsvm.models.FitStages.solve.
"""

import dataclasses
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from ifutsvm import models, qp


def gaussian(p, q, spec):
    """Gaussian kernel value for a single pair of feature vectors."""
    diff = np.asarray(p, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    d2 = float(np.sum(diff**2))
    return float(np.exp(-d2 / (2.0 * spec.width**2)))


def score(theta, sigma):
    """Fuzzy score of one sample from its membership and non-membership."""
    if sigma == 0.0:
        return theta
    if theta <= sigma:
        return 0.0
    return (1.0 - sigma) / (2.0 - theta - sigma)


def qp_objective_rows(Z, Q, c):
    """Objective c'z - z'Qz/2 evaluated on each candidate row of Z."""
    return Z @ c - 0.5 * np.einsum("ij,ij->i", Z @ Q, Z)


def grid_axis(lo, hi, step):
    """Grid lo, lo + step, ... up to hi; arange may overshoot hi, so clip to it."""
    return np.minimum(np.arange(lo, hi + step / 2, step), hi)


def grid_box_qp_oracle(Q, c, upper, step=1e-3, max_rounds=200, pair_window=40):
    k = len(c)
    if k <= 2:
        axes = [grid_axis(0.0, u, step) for u in upper]
        mesh = np.meshgrid(*axes, indexing="ij")
        Z = np.stack([m.ravel() for m in mesh], axis=1)
        return Z[np.argmax(qp_objective_rows(Z, Q, c))]
    z = np.zeros(k)
    for _ in range(max_rounds):
        moved = 0.0
        for i in range(k):
            ts = grid_axis(0.0, upper[i], step)
            Zc = np.repeat(z[None, :], ts.size, axis=0)
            Zc[:, i] = ts
            t = ts[np.argmax(qp_objective_rows(Zc, Q, c))]
            moved = max(moved, abs(t - z[i]))
            z[i] = t
        for i in range(k):
            for j in range(i + 1, k):
                ti = grid_axis(max(0.0, z[i] - pair_window * step),
                               min(upper[i], z[i] + pair_window * step), step)
                tj = grid_axis(max(0.0, z[j] - pair_window * step),
                               min(upper[j], z[j] + pair_window * step), step)
                TI, TJ = np.meshgrid(ti, tj, indexing="ij")
                Zc = np.repeat(z[None, :], TI.size, axis=0)
                Zc[:, i] = TI.ravel()
                Zc[:, j] = TJ.ravel()
                b = np.argmax(qp_objective_rows(Zc, Q, c))
                moved = max(moved, abs(Zc[b, i] - z[i]), abs(Zc[b, j] - z[j]))
                z[i], z[j] = Zc[b, i], Zc[b, j]
        if moved <= step / 2:
            break
    return z


def scalar_cyclic_sweep(Q, c, upper, z, q, diag_floor=1e-12):
    """One cyclic pass of exact per-coordinate maximization with clipping.

    z and q (= Q @ z, maintained incrementally) are updated in place.
    """
    k = z.shape[0]
    for i in range(k):
        denom = Q[i, i]
        if denom < diag_floor:
            denom = diag_floor
        zi = (c[i] - q[i] + Q[i, i] * z[i]) / denom
        if zi < 0.0:
            zi = 0.0
        elif zi > upper[i]:
            zi = upper[i]
        delta = zi - z[i]
        if delta != 0.0:
            z[i] = zi
            for j in range(k):
                q[j] += delta * Q[j, i]


def kkt_residual(problem, z, q=None):
    """The projected-gradient KKT residual of z, max_i |clip(z_i - (q_i - c_i),
    0, u_i) - z_i| with q = Q z (formed when not given); zero exactly at a
    solution."""
    if q is None:
        q = problem.Q @ z
    return float(np.max(np.abs(np.clip(z - (q - problem.c), 0.0, problem.upper) - z),
                        initial=0.0))


def active_set_polish(problem, z, q, free):
    """Newton step on the free coordinates, kept only if it ascends.

    The block is solved by Cholesky (LAPACK potrf/potrs); a non-positive pivot
    means it is singular, and then the min-norm least-squares solution is
    taken instead.  The step is clipped to the box and accepted only when the
    objective improves.  q must be Q @ z.  Returns (z, q, least_squares): the
    input pair itself when the step is rejected, and whether the block was
    solved by least squares.
    """
    idx = np.flatnonzero(free)
    if not idx.size:
        return z, q, False
    Q, c, upper = problem.Q, problem.c, problem.upper
    rows = Q.take(idx, 0)
    bound = z.copy()
    bound[idx] = 0.0
    rhs = c[idx] - rows @ bound
    Qff = rows.take(idx, 1)
    # LAPACK reads the C-ordered block as its transpose, the same symmetric matrix
    chol, info = dpotrf(Qff, lower=1, clean=0)
    if info == 0:
        z_free, _ = dpotrs(chol, rhs, lower=1)
    else:
        try:
            z_free = np.linalg.lstsq(Qff, rhs, rcond=None)[0]
        except np.linalg.LinAlgError:
            return z, q, True
    cand = z.copy()
    cand[idx] = np.clip(z_free, 0.0, upper[idx])
    q_cand = Q @ cand
    if float(c @ cand - 0.5 * (cand @ q_cand)) > float(c @ z - 0.5 * (z @ q)):
        return cand, q_cand, info != 0
    return z, q, info != 0


def full_check_box_qp(problem, tol, max_iter, remember=True):
    """Solve a box QP by scalar_cyclic_sweep and active_set_polish, forming the
    full KKT residual max_i |clip(z_i - (q_i - c_i), 0, u_i) - z_i| after every
    sweep and after every accepted polish step, and confirming a passing one on
    a fresh q = Q z.  A sweep that fails the check classifies each coordinate
    as at 0, at its upper bound or free (within 1e-10 (1 + u_i) of a bound);
    when that pattern equals the previous sweep's and was not polished before,
    the polish runs on the free coordinates with a fresh q.  With remember
    False, "before" means in the current run of that pattern only, so a
    pattern that recurs after others is polished again.

    Returns (converged, z, objective, residual, sweeps, refinements), the last
    iterate's when max_iter sweeps do not converge; refinements holds
    (pattern bytes, accepted, least_squares) per polish run.
    """
    Q, c, upper = problem.Q, problem.c, problem.upper
    margin = 1e-10 * (1.0 + upper)

    def objective(z, q):
        return float(c @ z - 0.5 * (z @ q))

    def check(z, q):
        if kkt_residual(problem, z, q) <= tol:
            q = Q @ z
            return kkt_residual(problem, z, q) <= tol, q
        return False, q

    z, q = np.zeros(c.size), np.zeros(c.size)
    previous, refinements, run_refined = None, [], False
    for it in range(1, max_iter + 1):
        scalar_cyclic_sweep(Q, c, upper, z, q)
        converged, q = check(z, q)
        if not converged:
            state = np.select([z <= margin, z >= upper - margin], [0, 2], 1)
            pattern = state.astype(np.uint8).tobytes()
            if pattern != previous:
                run_refined = False
            elif not run_refined and not (remember and pattern in [p for p, *_ in refinements]):
                run_refined = True
                q = Q @ z
                z_new, q, least_squares = active_set_polish(problem, z, q, state == 1)
                refinements.append((pattern, z_new is not z, least_squares))
                if z_new is not z:
                    z = z_new
                    converged, q = check(z, q)
            previous = pattern
        if converged:
            return True, z, objective(z, q), kkt_residual(problem, z, q), it, refinements
    q = Q @ z
    return False, z, objective(z, q), kkt_residual(problem, z, q), max_iter, refinements


def random_box_qp(rng):
    """Diagonally dominant SPD instance with mixed-sign linear term."""
    k = int(rng.integers(1, 9))
    A = rng.normal(size=(k, k))
    Q = 0.3 * (A.T @ A) / k + np.diag(rng.uniform(0.8, 1.6, k))
    c = rng.normal(size=k)
    upper = rng.uniform(0.2, 1.5, k)
    return Q, c, upper


class WholeDual(NamedTuple):
    """One plane's dual at a lattice point, whole (see ifutsvm.models): the
    proximal rows M, the ridge, the constraint rows H (its first `classes`
    rows are class rows), the linear term, the box and the sign."""

    M: np.ndarray
    ridge: float
    H: np.ndarray
    lin: np.ndarray
    upper: np.ndarray
    sign: float
    classes: int


def whole_duals(blocks, hp, kind):
    """Both duals of the lattice point hp on prepared blocks: the linear term
    is 1 on class rows and epsilon - 1 on universum rows, the box the plane's
    penalty times its class weights on class rows and cu on universum rows."""
    duals = []
    for M, H, weights, penalty, ridge, sign in zip(
            blocks.M, blocks.H, blocks.weights, (hp.c1, hp.c2),
            models._ridges(blocks, hp, kind), models.SIGNS):
        k = weights.shape[0]
        lin, upper = np.empty(H.shape[0]), np.empty(H.shape[0])
        lin[:k], lin[k:] = 1.0, hp.epsilon - 1.0
        upper[:k], upper[k:] = penalty * weights, hp.cu
        duals.append(WholeDual(M, ridge, H, lin, upper, sign, k))
    return tuple(duals)


def primal_value(dual, z):
    """The primal objective of a whole dual at (w; b) = z, its slacks at their
    optimal values: ||M z||^2 / 2 + ridge ||z||^2 / 2 + upper' max(0, lin -
    sign H z)."""
    Mz = dual.M @ z
    slack = np.maximum(0.0, dual.lin - dual.sign * (dual.H @ z))
    return float(0.5 * (Mz @ Mz) + 0.5 * dual.ridge * (z @ z) + dual.upper @ slack)


def reference_plane_solve(blocks, index, hp, kind, max_iter=qp.DEFAULT_MAX_ITER):
    """The solve stage of plane `index` at the lattice point hp, in numpy.

    The whole dual comes from whole_duals; a screened plane solves its
    class rows, others all their rows: BoxQP and solve_box_qp to the
    tolerance DEFAULT_TOL * max(1, upper.max()) of those rows, and recovers
    (w; b) = sign * cho_solve(factor, H_k' z).  A screened plane then checks
    each universum row on that plane, clip(lin_j - sign H_j (w; b), 0, cu), and
    solves its full dual the same way when the largest exceeds the full dual's
    tolerance; otherwise its solution is the class-row one padded with zeros,
    with the larger of the two residuals.

    Returns ((w; b), the full dual's QPSolution, whether the universum bound);
    raises what the solve raises.
    """
    plane = whole_duals(blocks, hp, kind)[index]

    def solve(rows):
        H, lin, upper = plane.H[:rows], plane.lin[:rows], plane.upper[:rows]
        factor = qp.spd_factor(plane.M.T @ plane.M, plane.ridge)
        problem = qp.BoxQP(H @ qp.cho_solve(factor, H.T), lin, upper)
        tol = qp.DEFAULT_TOL * max(1.0, float(upper.max(initial=0.0)))
        sol = qp.solve_box_qp(problem, tol=tol, max_iter=max_iter)
        return plane.sign * qp.cho_solve(factor, H.T @ sol.z), sol

    k, rows = plane.classes, plane.H.shape[0]
    if not blocks.screened[index]:
        return (*solve(rows), False)
    z, sol = solve(k)
    residual = np.minimum(np.maximum(plane.lin[k:] - plane.sign * (plane.H[k:] @ z), 0.0),
                          plane.upper[k:])
    worst = float(residual.max(initial=0.0))
    if worst > qp.DEFAULT_TOL * max(1.0, float(plane.upper.max(initial=0.0))):
        return (*solve(rows), True)
    full = dataclasses.replace(sol, z=np.concatenate([sol.z, np.zeros(rows - k)]),
                               kkt_residual=max(sol.kkt_residual, worst))
    return z, full, False
