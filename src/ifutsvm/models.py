"""Twin-hyperplane classifiers: the UTSVM baseline and IFUTSVM-ID.

Both models fit two nonparallel planes by solving one box-constrained dual per
plane.  Every dual here has the shape

    maximize  lin'z - z' H (M'M + ridge I)^{-1} H' z / 2,   0 <= z <= upper

where M collects the proximal (own-class) rows and H the signed constraint
rows; the plane is recovered as (w; b) = sign * (M'M + ridge I)^{-1} H' z.
Plane 1 has M = [X1 1] and plane 2 M = [X2 1] in both models; one builder
(_blocks) makes the rest.  The choices in which the two models differ (the
rows of H, the class weights, the ridges, the universum and which rows plane
2 is solved on) are tabled in README.md.  In kernel mode every block is
replaced by its Gaussian Gram rows against the stacked training matrix
D = [X1; X2]; a fit's blocks all come from one Gram evaluation of its
stacked class and universum rows.

A fit runs in three stages: prepare (scores, sampling plan or universum, and
the M/H blocks), hessian (per plane, the Cholesky factor of M'M + ridge I and
the checked Q, held with H, the class weights and the sign as a qp.PlaneQP)
and solve.  The solve stage is one C call per plane (qp.solve_plane): from the
point's penalty, cu and epsilon it builds the linear term and the box, solves
the box QP on the held Q and recovers (w; b).  A FitStages memo lets
consecutive fits share the first two stages, and the last solve of each plane
while its Hessian and the penalty, cu and epsilon its dual reads stay the
same.  All three run with OpenBLAS on one thread (qp._one_blas_thread), and
the caller gets its own thread count back when the fit returns or raises.

A plane whose class weights are all zero (IFUTSVM-ID's plane 2 when every
minority score collapses) fails after the prepare stage, plane 1 checked
first, with the error its solve would end in: its class box is zero and its
universum rows have epsilon - 1 < 0, so z = 0 solves its dual, and w = 0.

A screened plane (IFUTSVM-ID's plane 2) forms Q from its class rows only and
solves that dual, whose bounds read neither cu nor epsilon, so the lattice
points that differ only in those share one solve.  Its universum rows are
then checked on the recovered plane, in the same C call or, for a shared
solve, in one more (PlaneQP.screen): the KKT residual of a universum
multiplier held at zero is clip(lin_j - sign H_j (w; b), 0, cu).  Only when
one exceeds the full dual's box-scaled tolerance is the full dual built and
solved, as an unscreened plane's is.  README.md says why and how seldom a
universum row binds there.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .data import Dataset, ParseError
from .kernels import KernelSpec, gram_values
from .membership import FuzzyParams, ScoreWeights, assign_scores, uniform_scores
from .qp import DEFAULT_TOL, BoxQP, PlaneQP, PlaneSolution, _one_blas_thread, cho_solve, spd_factor
# the solve stage's one call per plane, under the name the benchmark's trace wraps
from .qp import solve_plane as solve_box_qp
from .sampling import SamplingPlan, build_plan

MAGIC = b"TWINSVM1"
MODEL_KINDS = ("utsvm", "ifutsvm-id")
DEGENERATE_NORM = 1e-12


class TrainingError(RuntimeError):
    """Training produced no usable model (degenerate plane, bad inputs)."""


@dataclass(frozen=True)
class Hyperparams:
    """Penalty, tube, kernel and fuzzy settings for one fit.

    The benchmark protocol ties c1 = c2 and c3 = c4; the fields stay separate
    so the models themselves are not restricted to that tie.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    cu: float
    epsilon: float = 0.1
    kernel: KernelSpec | None = None
    delta: float | None = None  # UTSVM stabilization ridge; None -> trace-scaled
    fuzzy: FuzzyParams = FuzzyParams()
    seed: int = 0

    def __post_init__(self):
        # the solver tolerance scales with the box, so an infinite penalty
        # would accept any iterate; the comparisons also reject NaN
        for name in ("c1", "c2", "c3", "c4"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.cu < np.inf:  # cu = 0 pins every universum multiplier at 0
            raise ValueError("cu must be nonnegative and finite")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if self.delta is not None and not 0 < self.delta < np.inf:
            raise ValueError("delta must be positive and finite")
        if type(self.seed) is not int:  # a bool or a float is no generator seed
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:  # numpy's generators take nonnegative seeds only
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class DualReport:
    """Solver artifacts of one fit, kept for diagnostics and audit tests.

    alpha/beta are the class/universum multipliers of the first plane,
    eta/theta those of the second plane.  universum_bound_2 is true when a
    screened plane 2's universum bound and its full dual was solved; when
    none bound, theta is the zero vector at which the class-row solution
    solves the full dual.
    """

    alpha: np.ndarray
    beta: np.ndarray
    eta: np.ndarray
    theta: np.ndarray
    kkt_residual_1: float
    kkt_residual_2: float
    dual_objective_1: float
    dual_objective_2: float
    iterations_1: int
    iterations_2: int
    plan: SamplingPlan | None = None
    scores: ScoreWeights | None = None
    universum: np.ndarray | None = None
    universum_bound_2: bool = False

    @property
    def balanced_fallback(self) -> bool:
        """True when the sampling plan found the classes balanced and drew no
        universum; UTSVM has no plan."""
        return self.plan is not None and self.plan.universum.shape[0] == 0


@dataclass(frozen=True)
class TwinModel:
    """Two trained hyperplanes plus everything needed to apply them.

    In kernel mode w1/w2 hold kernel-expansion coefficients against the
    retained reference matrix; prediction never touches raw training labels.
    """

    kind: str  # "utsvm" | "ifutsvm-id"
    w1: np.ndarray
    b1: float
    w2: np.ndarray
    b2: float
    reference: np.ndarray | None
    hyperparams: Hyperparams
    dual_report: DualReport | None = None

    @property
    def mode(self) -> str:
        """Read off the hyperparameters: "kernel" when they name a kernel, else "linear"."""
        return "linear" if self.hyperparams.kernel is None else "kernel"

    @property
    def n_features(self) -> int:
        if self.mode == "kernel":
            return self.reference.shape[1]
        return self.w1.shape[0]


@dataclass(frozen=True)
class _Blocks:
    """Prepare stage: the parts of a fit that no penalty, tube or ridge changes.

    Plane i has proximal block M[i] and signed constraint rows H[i], class
    rows first and universum rows after them.  Its box bounds the class rows
    by its penalty times weights[i] and the universum rows by cu.  Plane i
    is screened when screened[i] (see the module docstring).
    """

    D: np.ndarray | None
    M: tuple[np.ndarray, np.ndarray]
    H: tuple[np.ndarray, np.ndarray]
    weights: tuple[np.ndarray, np.ndarray]
    screened: tuple[bool, bool]
    plan: SamplingPlan | None = None
    scores: ScoreWeights | None = None
    universum: np.ndarray | None = None


SIGNS = (-1.0, 1.0)  # of each plane's (w; b) = sign (M'M + ridge I)^{-1} H' z


class FitStages:
    """Last-key memo of the prepare, hessian and solve stages, shared by
    consecutive fits.

    Fits with the same preparation key (training set, model kind, kernel,
    fuzzy parameters, seed, uniform scores, universum) reuse one set of
    blocks; those that also share a plane's ridge reuse that plane's Hessian,
    and those that also share the penalty, cu and epsilon its dual reads reuse
    its solution.  Only the latest blocks and the Hessians and solutions built
    on them are held, so a caller that orders its fits by key gets the reuse
    without keeping a lattice of arrays alive.
    """

    def __init__(self):
        self._key = None
        self._blocks = None
        self._held = [None, None]  # [ridge, PlaneQP, (key, PlaneSolution) or None] per plane

    def blocks(self, train: Dataset, key: tuple, build) -> _Blocks:
        if self._blocks is None or self._key[0] is not train or self._key[1:] != key:
            self._key, self._blocks, self._held = (train, *key), build(), [None, None]
        return self._blocks

    def solve(self, index: int, ridge: float, penalty: float, cu: float,
              epsilon: float) -> tuple[PlaneSolution, float, bool]:
        """Hessian and solve stages of plane `index` of the held blocks at one
        lattice point: its solution, the KKT residual of its full dual, and
        whether a screened plane's universum bound, so that the full dual was
        solved (see the module docstring)."""
        held = self._held[index]
        if held is None or held[0] != ridge:
            held = self._held[index] = [
                ridge, _hessian(self._blocks, index, ridge, self._blocks.screened[index]), None]
        plane = held[1]
        # the tolerance scales with the box, max(penalty * weights, cu), so that
        # huge penalty grids stay solvable; a dual without universum rows (a
        # screened plane's) reads neither cu nor epsilon
        box, universum = penalty * plane.weight_max, plane.size > plane.classes
        key = (penalty, cu, epsilon) if universum else penalty
        if held[2] is None or held[2][0] != key:
            sol = solve_box_qp(plane, penalty, cu, epsilon,
                               tol=DEFAULT_TOL * max(1.0, box, cu if universum else 0.0))
            held[2], worst = (key, sol), sol.universum_residual
        elif plane.size < plane.rows:
            sol, worst = held[2][1], plane.screen(held[2][1].coefficients, cu, epsilon)
        else:
            sol = held[2][1]
        if plane.size == plane.rows:  # not screened
            return sol, sol.kkt_residual, False
        tol = DEFAULT_TOL * max(1.0, box, cu)
        if worst > tol:
            full = solve_box_qp(_hessian(self._blocks, index, ridge, False), penalty, cu, epsilon,
                                tol=tol)
            return full, full.kkt_residual, True
        return sol, max(sol.kkt_residual, worst), False


def _hessian(blocks: _Blocks, index: int, ridge: float, screened: bool) -> PlaneQP:
    """Hessian stage of plane `index`: the Cholesky factor of M'M + ridge I and
    Q = H (M'M + ridge I)^{-1} H', over the class rows alone when screened,
    checked and symmetrised once for every lattice point that shares it."""
    M, H, weights = blocks.M[index], blocks.H[index], blocks.weights[index]
    factor = spd_factor(M.T @ M, ridge)
    rows = H[:weights.shape[0]] if screened else H
    S = cho_solve(factor, rows.T)
    # each solve brings its own bounds (solve_plane): these only pass the check
    bounds = np.zeros(rows.shape[0])
    return PlaneQP(BoxQP(rows @ S, bounds, bounds), factor, H, weights, SIGNS[index])


def _blocks(train: Dataset, kernel: KernelSpec | None, universum: np.ndarray | None = None,
            plan: SamplingPlan | None = None, scores: ScoreWeights | None = None) -> _Blocks:
    """Prepare stage of either model: UTSVM's with its universum, IFUTSVM-ID's
    with its sampling plan and fuzzy scores (see the module docstring's table).

    The rows of X1, X2 and the universum (IFUTSVM-ID: then the top-up rows of
    the reduced universum) are stacked once; in kernel mode one Gram
    evaluation maps the stack against D = [X1; X2], in linear mode the rows
    are used as they are.  Each block gets a column of ones.
    """
    X1, X2 = train.positives(), train.negatives()
    # G* is G's rows at universum_star_indices or, when those are empty, G and
    # the top-up rows after it: only the top-up rows join the stack
    U = universum if plan is None else np.vstack(
        [plan.universum, plan.universum_star[plan.universum.shape[0]:]])
    D = np.vstack([X1, X2]) if kernel is not None else None
    rows = np.vstack([X1, X2, U])
    if kernel is not None:
        rows = gram_values(rows, D, kernel)
    E, F, G = [np.hstack([R, np.ones((R.shape[0], 1))])
               for R in np.split(rows, [X1.shape[0], train.m])]
    if plan is None:  # UTSVM: all of X2, the universum on both planes, unit weights
        H = (np.vstack([F, -G]), np.vstack([E, -G]))
        weights = (np.ones(F.shape[0]), np.ones(E.shape[0]))
        screened = (False, False)
    else:  # IFUTSVM-ID: the undersampled X2*, the reduced universum, +G, fuzzy scores
        kept = plan.universum_star_indices
        Gs, G = (G[kept] if kept.size else G), G[:plan.universum.shape[0]]
        # X2* is a row subset of X2, so its block is a row subset of F
        H = (np.vstack([F[plan.x2_star_indices], -Gs]), np.vstack([E, G]))
        weights = (scores.s2[plan.x2_star_indices], scores.s1)
        screened = (False, True)  # +G seldom binds
    return _Blocks(D=D, M=(E, F), H=H, weights=weights, screened=screened, plan=plan,
                   scores=scores, universum=universum)


def _ridges(blocks: _Blocks, hp: Hyperparams, kind: str) -> tuple[float, float]:
    """Each plane's ridge: IFUTSVM-ID's c3 and c4, UTSVM's delta or its default."""
    if kind == "ifutsvm-id":
        return hp.c3, hp.c4
    if hp.delta is not None:
        return hp.delta, hp.delta
    # in kernel mode M is wide (m1 rows, m+1 columns): delta is then the only
    # regularizer acting on null(M), and a vanishing default makes the dual
    # unsolvable; linear-mode normal matrices are full rank and tolerate a much
    # smaller stabilization
    scale = 1e-7 if hp.kernel is None else 1e-3
    return tuple(scale * float(np.sum(M * M)) / M.shape[1] for M in blocks.M)


def _check_direction(w: np.ndarray, which: str, error=TrainingError) -> None:
    """Reject a plane with no direction: every distance to it divides by ||w||."""
    # math.sqrt(w @ w) is np.linalg.norm's own computation for a float64 vector
    if math.sqrt(w @ w) < DEGENERATE_NORM:
        raise error(f"degenerate plane {which}: ||w|| < {DEGENERATE_NORM}")


def _split_coefficients(z: np.ndarray, which: str) -> tuple[np.ndarray, float]:
    w, b = z[:-1].copy(), float(z[-1])
    _check_direction(w, which)
    return w, b


def _fit(kind: str, train: Dataset, hp: Hyperparams, key: tuple, prepare,
         stages: FitStages | None) -> TwinModel:
    """Prepare, hessian and solve stages of one lattice point, on memoized
    blocks, Hessians and solutions; `key` holds what else besides the kind
    and kernel the prepare stage depends on.

    Every fit passes here, and its linear algebra runs on one OpenBLAS thread:
    the duals are too small to gain from more, and parallel work comes from
    worker processes.  The caller's thread counts come back on return or raise.
    """
    stages = stages if stages is not None else FitStages()
    with _one_blas_thread:
        blocks = stages.blocks(train, (kind, hp.kernel, *key), prepare)
        for which, weights in enumerate(blocks.weights, start=1):
            if not weights.any():  # z = 0 solves its dual (module docstring)
                raise TrainingError(f"degenerate plane {which}: ||w|| < {DEGENERATE_NORM}")
        (sol1, kkt1, _), (sol2, kkt2, bound2) = [
            stages.solve(index, ridge, penalty, hp.cu, hp.epsilon)
            for index, (ridge, penalty) in enumerate(zip(_ridges(blocks, hp, kind),
                                                         (hp.c1, hp.c2)))]
        w1, b1 = _split_coefficients(sol1.coefficients, "1")
        w2, b2 = _split_coefficients(sol2.coefficients, "2")
    k1, k2 = (weights.shape[0] for weights in blocks.weights)
    report = DualReport(
        alpha=sol1.z[:k1], beta=sol1.z[k1:],
        eta=sol2.z[:k2], theta=sol2.z[k2:],
        kkt_residual_1=kkt1, kkt_residual_2=kkt2,
        dual_objective_1=sol1.objective, dual_objective_2=sol2.objective,
        iterations_1=sol1.iterations, iterations_2=sol2.iterations,
        plan=blocks.plan, scores=blocks.scores, universum=blocks.universum,
        universum_bound_2=bound2,
    )
    return TwinModel(kind=kind, w1=w1, b1=b1, w2=w2, b2=b2, reference=blocks.D,
                     hyperparams=hp, dual_report=report)


def fit_utsvm(train: Dataset, universum: np.ndarray | None, hp: Hyperparams,
              *, stages: FitStages | None = None) -> TwinModel:
    """Train the UTSVM baseline; an empty universum drops its multipliers.

    `stages` lets consecutive fits share their prepared blocks and Hessians.
    """
    if train.m1 == 0 or train.m2 == 0:
        raise TrainingError("both classes must be nonempty")
    if universum is None:
        universum = np.zeros((0, train.n))
    universum = np.atleast_2d(np.asarray(universum, dtype=np.float64))
    if universum.shape[1] != train.n:
        raise ValueError("universum feature dimension does not match the data")
    return _fit("utsvm", train, hp, (universum.shape, universum.tobytes()),
                lambda: _blocks(train, hp.kernel, universum), stages)


def fit_ifutsvm_id(train: Dataset, hp: Hyperparams, *, uniform: bool = False,
                   stages: FitStages | None = None) -> TwinModel:
    """Train IFUTSVM-ID: scores -> sampling plan -> two weighted duals.

    uniform=True forces all fuzzy scores to one (the ablation used in the
    robustness studies).  `stages` lets consecutive fits share their
    prepared blocks and Hessians.
    """
    if train.m1 < 2:
        raise TrainingError("positive class needs at least 2 samples")
    if train.m1 > train.m2:
        raise TrainingError("positive class must be the minority (or equal) class")

    def prepare() -> _Blocks:
        scores = uniform_scores(train) if uniform else assign_scores(train, hp.kernel, hp.fuzzy)
        return _blocks(train, hp.kernel, plan=build_plan(train, hp.seed), scores=scores)

    return _fit("ifutsvm-id", train, hp, (hp.fuzzy, hp.seed, uniform), prepare, stages)


def duality_gaps(model: TwinModel, train: Dataset) -> tuple[float, float]:
    """Reassemble both primals and return |primal - dual| per plane.

    The comparison is against the ridge-regularized primal actually solved:
    each plane's ridge (UTSVM's delta or its trace-scaled default,
    IFUTSVM-ID's c3 or c4) enters its objective as ridge/2 ||(w;b)||^2.
    """
    if model.dual_report is None:
        raise ValueError("model carries no dual report")
    rep, hp = model.dual_report, model.hyperparams
    blocks = _blocks(train, hp.kernel, rep.universum, rep.plan, rep.scores)
    gaps = []
    for M, H, weights, penalty, ridge, sign, w, b, dual in zip(
            blocks.M, blocks.H, blocks.weights, (hp.c1, hp.c2), _ridges(blocks, hp, model.kind),
            SIGNS, (model.w1, model.w2), (model.b1, model.b2),
            (rep.dual_objective_1, rep.dual_objective_2)):
        # the dual's linear term and box (qp.solve_plane) are the primal's
        # margins and hinge weights
        k = weights.shape[0]
        lin, upper = np.empty(H.shape[0]), np.empty(H.shape[0])
        lin[:k], lin[k:] = 1.0, hp.epsilon - 1.0
        upper[:k], upper[k:] = penalty * weights, hp.cu
        z = np.concatenate([w, [b]])
        Mz = M @ z
        slack = np.maximum(0.0, lin - sign * (H @ z))
        primal = float(0.5 * (Mz @ Mz) + 0.5 * ridge * (z @ z) + upper @ slack)
        gaps.append(abs(primal - dual))
    return tuple(gaps)


def map_rows(model: TwinModel, x: np.ndarray) -> np.ndarray:
    """What the planes read of x: its rows in linear mode, else their Gram rows
    against the reference, which every fit on one set and kernel shares."""
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {X.shape[1]}")
    if model.mode == "kernel":
        return gram_values(X, model.reference, model.hyperparams.kernel)
    return X


def mapped_distances(model: TwinModel, Phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance of each mapped row (see map_rows) to each plane, |f_i(x)| / ||w_i||."""
    return tuple(np.abs(Phi @ w + b) / math.sqrt(w @ w)
                 for w, b in ((model.w1, model.b1), (model.w2, model.b2)))


def mapped_labels(model: TwinModel, Phi: np.ndarray) -> np.ndarray:
    """Label of the nearer plane per mapped row; ties resolve to +1 (the minority class)."""
    d1, d2 = mapped_distances(model, Phi)
    return np.where(d1 <= d2, 1, -1).astype(np.int64)


def decision_distances(model: TwinModel, x: np.ndarray):
    """Distance of x to each plane, |f_i(x)| / ||w_i||.

    Accepts a single sample (returns two floats) or a matrix (returns two
    arrays).
    """
    d1, d2 = mapped_distances(model, map_rows(model, x))
    if np.ndim(x) == 1:
        return float(d1[0]), float(d2[0])
    return d1, d2


def predict(model: TwinModel, x: np.ndarray):
    """Label of the nearer plane; ties resolve to +1 (the minority class)."""
    labels = mapped_labels(model, map_rows(model, x))
    return int(labels[0]) if np.ndim(x) == 1 else labels


# ---------------------------------------------------------------------------
# serialization


def save_model(model: TwinModel, path) -> None:
    """Write the binary model file: magic, JSON header, little-endian f64 blocks."""
    hp = model.hyperparams
    header = json.dumps({
        "kind": model.kind,
        "mode": model.mode,
        "n": int(model.n_features),
        "m": int(model.reference.shape[0]) if model.mode == "kernel" else 0,
        "coef_len": int(model.w1.shape[0]),
        "rkhs_norm": False,  # format field: plane distances always use ||w||
        "hyperparams": {
            "c1": hp.c1, "c2": hp.c2, "c3": hp.c3, "c4": hp.c4, "cu": hp.cu,
            "epsilon": hp.epsilon,
            "width": hp.kernel.width if hp.kernel else None,
            "delta": hp.delta,
            "eta": hp.fuzzy.eta, "rho": hp.fuzzy.rho,
            "seed": hp.seed,
        },
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blocks = [model.w1, [model.b1], model.w2, [model.b2]]
    if model.mode == "kernel":
        blocks.append(model.reference.ravel())
    payload = b"".join(np.asarray(b, dtype="<f8").tobytes() for b in blocks)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(payload)


def load_model(path) -> TwinModel:
    """Read a binary model file written by save_model.

    Raises ParseError for any content it cannot decode or honour: wrong
    magic, a truncated header, a header with missing or invalid fields (an
    unknown kind or mode, sizes that are not nonnegative integers or do not
    fit together, rkhs_norm other than false, a seed that is not an integer),
    a payload that is not exactly the size the header announces, or a payload
    holding a NaN, an infinity or a plane the fit rejects as degenerate, which
    would make every distance and so every label meaningless.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ParseError("not a twin-SVM model file")
    try:
        return _decode_model(blob)
    except (ValueError, KeyError, TypeError, struct.error) as exc:
        raise ParseError(f"corrupt model file: {type(exc).__name__}: {exc}") from None


def _check_header(header: dict) -> None:
    if header["kind"] not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {header['kind']!r}")
    if header["mode"] not in ("linear", "kernel"):
        raise ValueError(f"unknown mode {header['mode']!r}")
    for key in ("n", "m", "coef_len"):
        value = header[key]
        if type(value) is not int or value < 0:
            raise ValueError(f"{key} must be a nonnegative integer, got {value!r}")
    expected = header["m"] if header["mode"] == "kernel" else header["n"]
    if header["coef_len"] != expected:
        raise ValueError(f"coef_len {header['coef_len']} does not match the "
                         f"{header['mode']} model size {expected}")
    if header["mode"] == "linear" and header["m"] != 0:
        raise ValueError(f"a linear model has no reference rows, got m = {header['m']}")
    if (header["mode"] == "kernel") != (header["hyperparams"]["width"] is not None):
        raise ValueError("a kernel width is required in kernel mode and only there")
    if header["rkhs_norm"] is not False:
        raise ValueError("rkhs_norm must be false: plane distances use ||w||")


def _decode_model(blob: bytes) -> TwinModel:
    off = len(MAGIC)
    (hlen,) = struct.unpack_from("<I", blob, off)
    off += 4
    header = json.loads(blob[off:off + hlen].decode("utf-8"))
    off += hlen
    _check_header(header)
    coef_len, m, n = header["coef_len"], header["m"], header["n"]
    kernel = header["mode"] == "kernel"
    size = 8 * (2 * coef_len + 2 + (m * n if kernel else 0))
    if len(blob) - off != size:
        raise ValueError(f"payload has {len(blob) - off} bytes, the header announces {size}")
    payload = np.frombuffer(blob, dtype="<f8", offset=off).copy()
    if not np.all(np.isfinite(payload)):
        raise ValueError("a coefficient, intercept or reference value is not finite")
    w1, b1, w2, b2, reference = np.split(payload, np.cumsum([coef_len, 1, coef_len, 1]))
    _check_direction(w1, "1", ValueError)
    _check_direction(w2, "2", ValueError)
    hp = header["hyperparams"]
    hyperparams = Hyperparams(
        c1=hp["c1"], c2=hp["c2"], c3=hp["c3"], c4=hp["c4"], cu=hp["cu"],
        epsilon=hp["epsilon"], kernel=KernelSpec(hp["width"]) if hp["width"] is not None else None,
        delta=hp["delta"], fuzzy=FuzzyParams(eta=hp["eta"], rho=hp["rho"]), seed=hp["seed"],
    )
    return TwinModel(kind=header["kind"], w1=w1, b1=float(b1[0]), w2=w2, b2=float(b2[0]),
                     reference=reference.reshape(m, n) if kernel else None,
                     hyperparams=hyperparams)
