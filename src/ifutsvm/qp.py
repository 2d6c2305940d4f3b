"""Box-constrained concave-quadratic maximization and regularized SPD factorization.

The duals trained here maximize c'z - z'Qz/2 over 0 <= z <= upper with Q
symmetric positive semidefinite.  BoxQP stores Q as its symmetric part
(Q + Q')/2, which defines the same objective, so the sweep, the gradient and
the residual all read one exactly symmetric matrix.  There is no equality
constraint, so cyclic coordinate ascent with exact per-coordinate clipping
converges monotonically.  Every problem takes that one path: each step
divides by max(Q_ii, DIAG_FLOOR), and a zero-curvature coordinate of a PSD Q
has a zero row, so the floored step sends it straight to the bound its
linear term favours.  Convergence is certified by the projected-gradient KKT
residual

    max_i | clip(z_i - g_i, 0, upper_i) - z_i |,   g = Qz - c.

After each sweep the test reads one coordinate, the last vector's argmax:
while it exceeds the tolerance, so does the maximum.  Once it passes, the
vector is formed and a passing maximum is confirmed on a fresh Qz.

Sweeps find the active face fast and then crawl along it, so the solver
finishes on the face (More & Toraldo, SIAM J. Optim. 1991): a sweep that
fails the test classifies each coordinate as at 0, at its upper bound or
free, and when that pattern equals the previous sweep's and has not been
refined before in this solve, the free block is solved exactly, by Cholesky
with a least-squares fallback for a singular block.  The step is clipped to
the box and kept only if the objective rises, and a kept step is tested at
once, so a dual the refinement solves returns in that sweep.

The sweep is a Python loop over coordinates, so its cost is per-coordinate
overhead: it reads and writes z and q through memoryviews, and updates q
with one multiply and one add per moved coordinate (the same two roundings
as the scalar loop).  BoxQP checks, symmetrises and lays out the rows of Q
once; with_bounds gives that Q another c and upper, so the lattice points
that share a dual Hessian share one checked Q.

The duals are small (order m + 1, a few hundred on KEEL-sized sets), so
OpenBLAS's thread hand-offs cost more than they save: every fit runs its
linear algebra inside `with _one_blas_thread:`, one scope object that finds
each OpenBLAS loaded into the process at import, sets them to one thread and
gives the caller back the counts it had.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor
from scipy.linalg.lapack import dpotrf, dpotrs

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10_000
DIAG_FLOOR = 1e-12


class NumericalError(RuntimeError):
    """Base class for solver failures."""


class NonConvergenceError(NumericalError):
    """Sweep limit reached before the KKT residual dropped below tolerance."""

    def __init__(self, best: "QPSolution"):
        self.best = best
        super().__init__(
            f"box QP did not converge in {best.iterations} sweeps "
            f"(KKT residual {best.kkt_residual:.3e})"
        )


class FactorizationError(NumericalError):
    """Cholesky factorization hit a non-positive pivot."""


class NonFiniteError(NumericalError, ValueError):
    """A box QP has a NaN or infinite entry, so no sweep could solve it."""


@dataclass(frozen=True)
class BoxQP:
    """maximize c'z - z'Qz/2  subject to  0 <= z <= upper.

    Q, c and upper must be finite (NonFiniteError, which fits report as a
    numerical failure) and Q symmetric to a relative 1e-10; Q is stored as
    (Q + Q')/2, which keeps the bits of an exactly symmetric Q.  with_bounds
    gives the same Q another c and upper without checking Q again.
    """

    Q: np.ndarray
    c: np.ndarray
    upper: np.ndarray
    # the sweep's row views of Q, its diagonal and floored diagonal, built once per Q
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Q = np.ascontiguousarray(self.Q, dtype=np.float64)
        k = np.shape(self.c)[0]
        if Q.shape != (k, k):
            raise ValueError("Q must be square and match the linear term")
        scale = float(np.max(np.abs(Q), initial=0.0))  # NaN or inf if Q has one
        if not np.isfinite(scale):
            raise NonFiniteError("Q, c and upper must be finite")
        if np.max(np.abs(Q - Q.T), initial=0.0) > 1e-10 * max(1.0, scale):
            raise ValueError("Q must be symmetric")
        Q_sym = Q + Q.T
        Q_sym *= 0.5
        diag = Q_sym.diagonal().tolist()
        object.__setattr__(self, "Q", Q_sym)
        object.__setattr__(self, "_rows", (list(Q_sym), diag,
                                           [max(d, DIAG_FLOOR) for d in diag]))
        self._set_bounds(self.c, self.upper)

    def with_bounds(self, c, upper) -> "BoxQP":
        """This problem's Q and sweep rows with another linear term and box;
        only c and upper are checked."""
        problem = object.__new__(BoxQP)
        object.__setattr__(problem, "Q", self.Q)
        object.__setattr__(problem, "_rows", self._rows)
        problem._set_bounds(c, upper)
        return problem

    def _set_bounds(self, c, upper) -> None:
        c = np.ascontiguousarray(c, dtype=np.float64)
        upper = np.ascontiguousarray(upper, dtype=np.float64)
        k = self.Q.shape[0]
        if c.shape != (k,):
            raise ValueError("the linear term must be a vector that matches Q")
        if upper.shape != (k,):
            raise ValueError("upper bounds must match the linear term")
        if not (np.isfinite(c).all() and np.isfinite(upper).all()):
            raise NonFiniteError("Q, c and upper must be finite")
        if (upper < 0).any():
            raise ValueError("upper bounds must be nonnegative")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "upper", upper)

    @property
    def size(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class QPSolution:
    z: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int


def _residuals(problem: BoxQP, z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-coordinate KKT residuals of z given q = Q @ z."""
    # np.clip spelled as the ufuncs it wraps: the same bits, less call overhead
    r = np.minimum(np.maximum(z - (q - problem.c), 0.0), problem.upper)
    r -= z
    return np.abs(r, out=r)


def _kkt_residual(problem: BoxQP, z: np.ndarray, q: np.ndarray) -> float:
    """KKT residual of z given q = Q @ z."""
    return float(np.maximum.reduce(_residuals(problem, z, q), initial=0.0))


def kkt_residual(problem: BoxQP, z: np.ndarray) -> float:
    """Projected-gradient optimality residual; zero exactly at a solution."""
    return _kkt_residual(problem, z, problem.Q @ z)


def _objective(problem: BoxQP, z: np.ndarray, q: np.ndarray) -> float:
    return float(problem.c @ z - 0.5 * (z @ q))


def _sweeper(problem: BoxQP):
    """Return sweep(z, q): one cyclic pass of exact per-coordinate maximization.

    z and q (= Q @ z, maintained incrementally) are float64 vectors updated
    in place.  The coordinate step runs on Python floats read and written
    through memoryviews (the same floats as ndarray.item, at less cost per
    access); each gradient update is one multiply and one add over a row of
    the symmetric Q, so every element gets the two roundings of the scalar
    q[j] += delta * Q[i, j] (a fused update would round once and change the
    bits).  The rows and diagonals come with the problem's Q; only c and upper
    are read per problem.
    """
    rows, diag, floored = problem._rows
    steps = list(zip(range(problem.size), rows, problem.c.tolist(), diag, floored,
                     problem.upper.tolist()))
    tmp = np.empty(problem.size)
    mul, add = np.multiply, np.add

    def sweep(z: np.ndarray, q: np.ndarray) -> None:
        zv, qv = memoryview(z), memoryview(q)
        for i, row, ci, di, dn, ui in steps:
            zi_old = zv[i]
            zi = (ci - qv[i] + di * zi_old) / dn
            if zi < 0.0:
                zi = 0.0
            elif zi > ui:
                zi = ui
            delta = zi - zi_old
            if delta != 0.0:
                zv[i] = zi
                mul(row, delta, tmp)
                add(q, tmp, q)

    return sweep


def _active_set_polish(problem: BoxQP, z: np.ndarray, q: np.ndarray, free: np.ndarray):
    """Newton step on the free coordinates, kept only if it ascends.

    Cyclic sweeps identify the active set quickly but crawl along
    ill-conditioned valleys; solving the free block exactly jumps to its
    optimum.  The block is solved by Cholesky (LAPACK potrf/potrs); a
    non-positive pivot means it is singular, as a linear-mode block with more
    than n + 1 free coordinates is, and then the min-norm least-squares
    solution is taken instead, since a plain solve would blow up along the
    null space and always be rejected.  The step is clipped to the box and
    accepted only when the objective improves, so the monotone-ascent
    invariant survives.  q must be Q @ z.
    """
    idx = np.flatnonzero(free)
    if not idx.size:
        return z, q
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
            return z, q
    cand = z.copy()
    cand[idx] = np.clip(z_free, 0.0, upper[idx])
    q_cand = Q @ cand
    if _objective(problem, cand, q_cand) > _objective(problem, z, q):
        return cand, q_cand
    return z, q


def solve_box_qp(problem: BoxQP, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> QPSolution:
    """Solve a box QP to the requested KKT residual.

    Raises NonConvergenceError (carrying the best iterate) if max_iter sweeps
    are exhausted first.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if problem.size == 0:
        return QPSolution(np.zeros(0), 0.0, 0.0, 0)

    Q, c, upper = problem.Q, problem.c.tolist(), problem.upper.tolist()
    sweep = _sweeper(problem)
    # a coordinate within margin of a bound is at it, every other one is free
    margin = 1e-10 * (1.0 + problem.upper)
    below_top = problem.upper - margin
    z = np.zeros(problem.size)
    q = np.zeros(problem.size)  # running Q @ z
    worst = 0  # argmax of the last residual vector

    def certify(z, q):
        """(q, residual): the residual on a fresh q = Q z once z passes, else None."""
        nonlocal worst
        # the vector's float operations on one coordinate; a NaN falls through
        zi = z.item(worst)
        if abs(min(max(zi - (q.item(worst) - c[worst]), 0.0), upper[worst]) - zi) > tol:
            return q, None
        r = _residuals(problem, z, q)
        worst = int(r.argmax())
        if not np.maximum.reduce(r, initial=0.0) <= tol:
            return q, None
        q = Q @ z  # confirm against a freshly computed gradient before reporting
        resid = _kkt_residual(problem, z, q)
        return q, (resid if resid <= tol else None)

    last, refined = None, set()  # the previous sweep's pattern, the refined ones
    for it in range(1, max_iter + 1):
        sweep(z, q)
        q, resid = certify(z, q)
        if resid is not None:
            return QPSolution(z, _objective(problem, z, q), resid, it)
        # each coordinate is at 0, at its upper bound or free
        off_zero = z > margin
        free = off_zero & (z < below_top)
        pattern = off_zero.tobytes() + free.tobytes()
        if pattern == last and pattern not in refined:
            refined.add(pattern)
            q = Q @ z  # refresh the incrementally tracked gradient
            polished, q = _active_set_polish(problem, z, q, free)
            if polished is not z:
                z = polished
                q, resid = certify(z, q)
                if resid is not None:
                    return QPSolution(z, _objective(problem, z, q), resid, it)
        last = pattern
    q = Q @ z
    resid = _kkt_residual(problem, z, q)
    raise NonConvergenceError(QPSolution(z, _objective(problem, z, q), resid, max_iter))


def spd_factor(M: np.ndarray, ridge: float):
    """Cholesky factor of M + ridge I (never an explicit inverse)."""
    A = np.asarray(M, dtype=np.float64)
    if ridge:
        A = A + ridge * np.eye(A.shape[0])
    try:
        return cho_factor(A, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise FactorizationError(
            f"matrix is not positive definite ({exc}); increase the ridge"
        ) from None


_OPENBLAS_CONTROLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                      for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


def _find_openblas() -> list[tuple]:
    """(get, set) thread-count functions of each OpenBLAS mapped into this process.

    numpy and scipy each ship their own build (numpy's `@` and lstsq run on
    one, scipy's cho_factor/cho_solve on the other).  Empty where no OpenBLAS
    is loaded or the platform has no /proc.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_CONTROLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


class _OneBlasThread:
    """Context manager that runs its block with every OpenBLAS in the process
    on one thread, then restores the counts the caller had, also when the
    block raises, nests or runs on several Python threads at once.

    The counts are process-wide, so one instance owns them: the libraries are
    found once, at import (numpy and scipy.linalg are loaded by then), and
    changed under one lock.  A depth count spans nested and concurrent
    scopes: the first to enter saves the counts and sets one thread, and the
    last to leave restores them.  Does nothing where no OpenBLAS is found.
    Parallelism comes from worker processes, not BLAS threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._controls = _find_openblas()
        self._depth = 0
        self._saved: list[int] = []

    def counts(self) -> list[int]:
        with self._lock:
            return [get() for get, _ in self._controls]

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._saved = [get() for get, _ in self._controls]
                for _, set_ in self._controls:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, set_), count in zip(self._controls, self._saved):
                    set_(count)


_one_blas_thread = _OneBlasThread()
