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

The whole solve is one C call (`_solve.c`, loaded with ctypes): the sweeps,
the one-coordinate test, the full residual and its confirmation on a fresh
Qz, the pattern test with the set of patterns refined, and the refinement
itself, least squares included.  It returns to Python at convergence and at
the sweep limit.  It keeps the bits of the scalar reference loop and the
reference refinement in tests/oracle_utils.py: each step is (c_i - q_i +
Q_ii z_i) / max(Q_ii, DIAG_FLOOR), each gradient update q_j + Q_ij * delta
rounds twice, Q @ z and c @ z are numpy's own cblas_dgemv and cblas_ddot
called as numpy's matmul calls them, the least squares are numpy's own
dgelsd called as np.linalg.lstsq calls it (its workspace query, rcond = eps
k), and the factor and solve are scipy's LAPACK potrf and potrs (through
scipy.linalg.cython_lapack).  Those entry points are found once, at import,
and a missing one raises ImportError.  The C file is built with `gcc -O2
-ffp-contract=off -shared -fPIC`, so with no FMA contraction and no
-ffast-math, once per machine into $XDG_CACHE_HOME/ifutsvm (else
~/.cache/ifutsvm), named by the SHA-256 of the source and the command; a
warm import runs no compiler, and a cold one without gcc raises ImportError.
Each solution counts its path: full residuals formed, refinements tried,
kept and solved by least squares.
BoxQP checks and symmetrises Q and takes its diagonals once.

A twin-SVM plane is solved by one C call per lattice point (solve_plane): a
PlaneQP holds the plane's checked Q, its Cholesky factor, its constraint
rows, class weights and sign, with their addresses resolved once per
Hessian, and the call builds the plane's linear term and box from the
point's penalty, cu and epsilon, solves, and recovers (w; b) by potrs on
H'z, formed as numpy's matmul forms H.T @ z.  The tests' numpy path
(reference_plane_solve) is its bit-for-bit reference.

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
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg import LinAlgError, cho_factor, cython_lapack
from scipy.linalg.lapack import dpotrs

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10_000
DIAG_FLOOR = 1e-12

_SOURCE = Path(__file__).with_name("_solve.c")
# no FMA contraction and no -ffast-math: the loop must round as the reference does
_COMPILE = ("gcc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
# numpy's cblas and LAPACK names, the ILP64 ones first; the ddot of the same build
# goes with each dgemv
_DGEMV_NAMES = ("scipy_cblas_dgemv64_", "cblas_dgemv64_", "scipy_cblas_dgemv", "cblas_dgemv")
_GELSD_NAMES = ("scipy_dgelsd_64_", "dgelsd_64_", "scipy_dgelsd_", "dgelsd_")
# the C calls' return codes and the slots of their state vector (see _solve.c)
_SOLVE_LIMIT, _SOLVE_NO_MEMORY, _PLANE_NON_FINITE, _PLANE_NEGATIVE = range(1, 5)  # 0: converged
_State = ctypes.c_int64 * 5  # sweeps, checks, refinements, accepted, least squares
_Values = ctypes.c_double * 3  # objective, residual, a screened plane's universum maximum


def _symbol(library: ctypes.CDLL, names) -> tuple[str, int]:
    """The first of names that library exports, with its address."""
    for name in names:
        try:
            return name, ctypes.cast(getattr(library, name), ctypes.c_void_p).value
        except AttributeError:
            continue
    raise ImportError(f"ifutsvm's box-QP solver needs {' or '.join(names)} from "
                      f"{library._name}, which exports none of them")


def _capsule(module, name: str) -> int:
    """The address of the C function a Cython module exports as name."""
    capsule = module.__pyx_capi__.get(name)
    if capsule is None:
        raise ImportError(f"ifutsvm's box-QP solver needs {name} from {module.__file__}, "
                          f"which does not export it")
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


def _entry_points() -> tuple:
    """(blas_ilp64, dgemv, ddot, lapack_ilp64, dgelsd, dpotrf, dpotrs): numpy's
    cblas_dgemv and cblas_ddot, found through its own extension module's handle,
    numpy's dgelsd, found through the handle of the module behind
    np.linalg.lstsq, and scipy's LAPACK."""
    numpy_blas = ctypes.CDLL(_umath.__file__)
    dgemv_name, dgemv = _symbol(numpy_blas, _DGEMV_NAMES)
    _, ddot = _symbol(numpy_blas, [dgemv_name.replace("dgemv", "ddot")])
    gelsd_name, gelsd = _symbol(ctypes.CDLL(_umath_linalg.__file__), _GELSD_NAMES)
    return (int(dgemv_name.endswith("64_")), dgemv, ddot, int(gelsd_name.endswith("64_")), gelsd,
            _capsule(cython_lapack, "dpotrf"), _capsule(cython_lapack, "dpotrs"))


def _load_solver():
    """The C solver, compiled into the per-user cache when that misses, bound to
    numpy's BLAS and LAPACK and scipy's LAPACK; (solve_box_qp, solve_plane,
    plane_screen).

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
            raise ImportError(f"ifutsvm needs a C compiler to build its box-QP solver "
                              f"once: `{' '.join(_COMPILE)}` on {_SOURCE} into the cache "
                              f"at {library} failed: {detail}") from None
    lib = ctypes.CDLL(str(library))
    pointer, double, int64 = ctypes.c_void_p, ctypes.c_double, ctypes.c_int64
    out = [pointer, ctypes.POINTER(double), ctypes.POINTER(int64)]  # z or out, values, state
    for name, argtypes in (
            ("solve_bind", [ctypes.c_int, pointer, pointer, ctypes.c_int, *[pointer] * 3]),
            ("solve_box_qp", [int64, *[pointer] * 4, double, int64, *out]),
            ("solve_plane", [pointer, *[double] * 4, int64, *out]),
            ("plane_screen", [pointer, pointer, double, double, ctypes.POINTER(double)])):
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = None if name == "solve_bind" else ctypes.c_int
    lib.solve_bind(*_entry_points())
    return lib.solve_box_qp, lib.solve_plane, lib.plane_screen


_solve, _solve_plane, _plane_screen = _load_solver()


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
    (Q + Q')/2, which keeps the bits of an exactly symmetric Q.
    """

    Q: np.ndarray
    c: np.ndarray
    upper: np.ndarray
    # Q's diagonal over its floored diagonal, built once per Q
    _diagonals: np.ndarray = field(init=False, repr=False, compare=False)

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
        diagonals = np.empty((2, k))
        diagonals[0] = Q_sym.diagonal()
        np.maximum(diagonals[0], DIAG_FLOOR, out=diagonals[1])
        c = np.ascontiguousarray(self.c, dtype=np.float64)
        upper = np.ascontiguousarray(self.upper, dtype=np.float64)
        if c.shape != (k,):
            raise ValueError("the linear term must be a vector that matches Q")
        if upper.shape != (k,):
            raise ValueError("upper bounds must match the linear term")
        if not (np.isfinite(c).all() and np.isfinite(upper).all()):
            raise NonFiniteError("Q, c and upper must be finite")
        if (upper < 0).any():
            raise ValueError("upper bounds must be nonnegative")
        object.__setattr__(self, "Q", Q_sym)
        object.__setattr__(self, "_diagonals", diagonals)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "upper", upper)

    @property
    def size(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class QPSolution:
    """A solve's iterate and how it got there: the sweeps run, the full KKT
    residuals formed, the refinements tried, those kept and those whose
    block was solved by least squares."""

    z: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    checks: int = 0
    refinements: int = 0
    accepted: int = 0
    least_squares: int = 0


class PlaneSolution(NamedTuple):
    """A plane's solve at one lattice point (solve_plane): z over every row of
    H, zero on the universum rows a screened plane leaves out of its dual,
    (w; b), and the dual's objective, KKT residual and counts as in
    QPSolution; universum_residual is a screened plane's largest universum
    KKT residual (PlaneQP.screen), 0 for any other plane."""

    z: np.ndarray
    coefficients: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    checks: int
    refinements: int
    accepted: int
    least_squares: int
    universum_residual: float


class _PlaneContext(ctypes.Structure):
    """struct plane of _solve.c"""

    _fields_ = [*[(name, ctypes.c_int64) for name in ("k", "rows", "classes", "columns")],
                *[(name, ctypes.c_void_p) for name in ("Q", "diagonals", "L", "H", "weights")],
                ("sign", ctypes.c_double)]


class PlaneQP:
    """The Hessian context of one plane of a twin-SVM dual (see ifutsvm.models):
    the checked Q of `problem`, the lower Cholesky `factor` of M'M + ridge I,
    the constraint rows H (class rows first, then universum rows), the class
    weights and the sign.  Q spans every row of H, or only the class rows for
    a screened plane.

    The arrays' addresses are resolved here, once per Hessian, and the
    context holds the arrays; it cannot be pickled, since a copy would point
    at the original's memory.
    """

    def __init__(self, problem: BoxQP, factor, H: np.ndarray, weights: np.ndarray, sign: float):
        L, lower = factor
        L = np.asfortranarray(L, dtype=np.float64)
        H = np.ascontiguousarray(H, dtype=np.float64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        (rows, columns), classes, k = H.shape, weights.shape[0], problem.size
        if not lower or L.shape != (columns, columns) or k not in (classes, rows) or classes > rows:
            raise ValueError("a plane needs a lower factor of H's order and a Q over its "
                             "class rows or all of H's rows")
        self.problem, self.sign, self.size = problem, sign, k
        self.rows, self.classes = rows, classes
        self.weight_max = float(weights.max(initial=0.0))
        self._arrays = (L, H, weights)
        self._context = _PlaneContext(k, rows, classes, columns, problem.Q.ctypes.data,
                                      problem._diagonals.ctypes.data, L.ctypes.data,
                                      H.ctypes.data, weights.ctypes.data, sign)
        self._address = ctypes.addressof(self._context)
        self._Out = ctypes.c_double * (rows + columns)  # z over H's rows, then (w; b)
        self._Coefficients = ctypes.c_double * columns

    def __reduce__(self):
        raise TypeError("a PlaneQP holds raw addresses and cannot be pickled or copied")

    def screen(self, coefficients: np.ndarray, cu: float, epsilon: float) -> float:
        """The largest KKT residual of the universum multipliers a screened
        plane leaves out, held at zero, at (w; b) = coefficients:
        max_j clip(epsilon - 1 - sign H_j (w; b), 0, cu), 0 without any."""
        top = ctypes.c_double()
        if _plane_screen(self._address, self._Coefficients.from_buffer(coefficients), cu, epsilon,
                         top):
            raise MemoryError(f"no memory to screen {self.rows - self.size} universum rows")
        return top.value


def _solution(status: int, z: np.ndarray, values, state, max_iter: int) -> QPSolution:
    """The solution a C solve returned, or the error it ended in."""
    if status == _SOLVE_NO_MEMORY:
        raise MemoryError(f"no memory for a box QP of size {z.shape[0]}")
    if status == _PLANE_NON_FINITE:
        raise NonFiniteError("Q, c and upper must be finite")
    if status == _PLANE_NEGATIVE:
        raise ValueError("upper bounds must be nonnegative")
    sol = QPSolution(z, values[0], values[1], max_iter if status == _SOLVE_LIMIT else state[0],
                     *state[1:])
    if status == _SOLVE_LIMIT:
        raise NonConvergenceError(sol)
    return sol


def solve_box_qp(problem: BoxQP, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> QPSolution:
    """Solve a box QP to the requested KKT residual.

    Raises NonConvergenceError (carrying the best iterate) if max_iter sweeps
    are exhausted first.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    z = np.zeros(problem.size)
    values, state = _Values(), _State()
    status = _solve(z.shape[0], problem.Q.ctypes.data, problem._diagonals.ctypes.data,
                    problem.c.ctypes.data, problem.upper.ctypes.data, tol, max_iter,
                    z.ctypes.data, values, state)
    return _solution(status, z, values, state, max_iter)


def solve_plane(plane: PlaneQP, penalty: float, cu: float, epsilon: float, *, tol: float,
                max_iter: int = DEFAULT_MAX_ITER) -> PlaneSolution:
    """The solve stage of one plane at one lattice point, in one C call.

    The dual's linear term is 1 on class rows and epsilon - 1 on universum
    rows, its box penalty * weights on class rows and cu on universum rows;
    it is solved as solve_box_qp solves BoxQP(Q, c, upper), with the same
    errors, and (w; b) = sign * cho_solve(factor, H_k' z) over the rows H_k
    of its dual.  A screened plane also gets its universum_residual.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    out, values, state = plane._Out(), _Values(), _State()
    status = _solve_plane(plane._address, penalty, cu, epsilon, tol, max_iter, out, values, state)
    buffer = np.frombuffer(out)
    if status:
        _solution(status, buffer[:plane.size], values, state, max_iter)
    rows = plane.rows
    return PlaneSolution(buffer[:rows], buffer[rows:], values[0], values[1], *state, values[2])


def cho_solve(factor, b) -> np.ndarray:
    """scipy.linalg.cho_solve(factor, b, check_finite=False) for float64: the
    same LAPACK dpotrs, without scipy's batching and lookup on every call."""
    c, lower = factor
    x, info = dpotrs(c, b, lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


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
