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

The loop runs in C (`_solve.c`, loaded with ctypes): the sweeps, the
one-coordinate test and the pattern test.  It comes back to Python only to
form the full residual once the test passes, to refine a repeated pattern
by LAPACK, and at the sweep limit; its state (sweeps, the tested coordinate,
the last pattern and whether that was refined) goes in and out each time.
It keeps the bits of the scalar reference loop in tests/oracle_utils.py:
each step is (c_i - q_i + Q_ii z_i) / max(Q_ii, DIAG_FLOOR), and each
gradient update q_j + Q_ij * delta rounds twice.  It is built with
`gcc -O2 -ffp-contract=off -shared -fPIC`, so with no FMA contraction and no
-ffast-math, once per machine into $XDG_CACHE_HOME/ifutsvm (else
~/.cache/ifutsvm), named by the SHA-256 of the source and the command; a warm
import runs no compiler, and a cold one without gcc raises ImportError.
BoxQP checks and symmetrises Q and takes its diagonals once; with_bounds
gives that Q another c and upper, so the lattice points that share a dual
Hessian share one checked Q.

The duals are small (order m + 1, a few hundred on KEEL-sized sets), so
OpenBLAS's thread hand-offs cost more than they save: every fit runs its
linear algebra inside `with _one_blas_thread:`, one scope object that finds
each OpenBLAS loaded into the process at import, sets them to one thread and
gives the caller back the counts it had.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError, cho_factor
from scipy.linalg.lapack import dpotrf, dpotrs

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10_000
DIAG_FLOOR = 1e-12

_SOURCE = Path(__file__).with_name("_solve.c")
# no FMA contraction and no -ffast-math: the loop must round as the reference does
_COMPILE = ("gcc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
# solve_loop's return codes and the slots of its state vector (see _solve.c)
_PROBE, _REPEAT, _LIMIT = range(3)
_SWEEPS, _WORST, _REFINED, _CLASSIFY = range(4)


def _load_solve_loop():
    """The C solve loop, compiled into the per-user cache when that misses.

    The library's name carries the SHA-256 of the source and the compile
    command, so a warm cache costs one file read and one dlopen and runs no
    compiler.  A build writes a temporary file in the cache and moves it into
    place, so processes that build at once leave one library and no partial one.
    """
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_COMPILE).encode()).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "ifutsvm"
    library = cache / f"_solve-{key}.so"
    if not library.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=f"{library.name}.", dir=cache)
            os.close(fd)
            try:
                subprocess.run([*_COMPILE, "-o", tmp, str(_SOURCE)], check=True,
                               capture_output=True, text=True)
                os.replace(tmp, library)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            raise ImportError(f"ifutsvm needs a C compiler to build its box-QP solve loop "
                              f"once: `{' '.join(_COMPILE)}` on {_SOURCE} into the cache "
                              f"at {library} failed: {detail}") from None
    solve_loop = ctypes.CDLL(str(library)).solve_loop
    solve_loop.argtypes = [ctypes.c_int64, *[ctypes.c_void_p] * 7, ctypes.c_double,
                           ctypes.c_int64, *[ctypes.c_void_p] * 5]
    solve_loop.restype = ctypes.c_int
    return solve_loop


_solve_loop = _load_solve_loop()


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
    # Q's diagonal and floored diagonal, built once per Q
    _diagonals: tuple = field(init=False, repr=False, compare=False)

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
        diag = Q_sym.diagonal().copy()
        object.__setattr__(self, "Q", Q_sym)
        object.__setattr__(self, "_diagonals", (diag, np.maximum(diag, DIAG_FLOOR)))
        self._set_bounds(self.c, self.upper)

    def with_bounds(self, c, upper) -> "BoxQP":
        """This problem's Q and diagonals with another linear term and box;
        only c and upper are checked."""
        problem = object.__new__(BoxQP)
        object.__setattr__(problem, "Q", self.Q)
        object.__setattr__(problem, "_diagonals", self._diagonals)
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

    Q, upper = problem.Q, problem.upper
    k = problem.size
    # a coordinate within margin of a bound is at it, every other one is free
    margin = 1e-10 * (1.0 + upper)
    below_top = upper - margin
    z, q = np.zeros(k), np.zeros(k)  # q: the running Q @ z
    state = np.zeros(4, dtype=np.int64)  # sweeps, probed coordinate, refined, classify
    pattern = np.full(k, 3, dtype=np.uint8)  # the last sweep's bound pattern; 3 is none
    scratch = np.empty(k, dtype=np.uint8)
    arrays = (Q, problem.c, upper, *problem._diagonals, margin, below_top)
    args = (k, *(a.ctypes.data for a in arrays), tol, max_iter,
            *(a.ctypes.data for a in (z, q, state, pattern, scratch)))

    def confirm():
        """The residual on a fresh q = Q z if z passes the full test, else None."""
        r = _residuals(problem, z, q)
        state[_WORST] = r.argmax()
        if not np.maximum.reduce(r, initial=0.0) <= tol:
            return None
        q[:] = Q @ z  # confirm against a freshly computed gradient before reporting
        resid = _kkt_residual(problem, z, q)
        return resid if resid <= tol else None

    refined = set()  # the patterns refined in this solve
    while (status := _solve_loop(*args)) != _LIMIT:
        if status == _PROBE:
            resid = confirm()
            state[_CLASSIFY] = 1  # the sweep's pattern test comes next
        else:  # a repeated pattern the loop does not know to be refined
            state[_REFINED] = 1
            key = pattern.tobytes()
            if key in refined:
                continue
            refined.add(key)
            q[:] = Q @ z  # refresh the incrementally tracked gradient
            polished, q_polished = _active_set_polish(problem, z, q, pattern == 1)
            if polished is z:
                continue
            z[:], q[:] = polished, q_polished
            resid = confirm()
        if resid is not None:
            return QPSolution(z, _objective(problem, z, q), resid, int(state[_SWEEPS]))
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
