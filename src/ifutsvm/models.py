"""Twin-hyperplane classifiers: the UTSVM baseline and IFUTSVM-ID.

Both models fit two nonparallel planes by solving one box-constrained dual per
plane.  Every dual here has the shape

    maximize  lin'z - z' H (M'M + ridge I)^{-1} H' z / 2,   0 <= z <= upper

where M collects the proximal (own-class) rows and H the signed constraint
rows; the plane is recovered as (w; b) = sign * (M'M + ridge I)^{-1} H' z.
IFUTSVM-ID weights the slack bounds with intuitionistic fuzzy scores, builds
the minority plane from an undersampled majority subset plus a reduced
universum, and builds the majority plane from the full classes plus the full
universum.  In kernel mode every block is replaced by its Gaussian Gram rows
against the stacked training matrix D = [X1; X2].

A fit runs in three stages: prepare (scores, sampling plan or universum, and
the M/H blocks), hessian (per plane, the Cholesky factor of M'M + ridge I and
Q) and solve (per lattice point, the box QP and the recovery of (w; b)).
A FitStages memo lets consecutive fits share the first two.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_solve

from .data import Dataset
from .kernels import KernelSpec, gram_values
from .membership import FuzzyParams, ScoreWeights, assign_scores, uniform_scores
from .qp import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    BoxQP,
    QPSolution,
    solve_box_qp,
    spd_factor,
)
from .sampling import SamplingPlan, build_plan

MAGIC = b"TWINSVM1"
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
        for name in ("c1", "c2", "c3", "c4"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.cu < 0:  # cu = 0 is allowed: it pins every universum multiplier at 0
            raise ValueError("cu must be nonnegative")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")


@dataclass(frozen=True)
class DualReport:
    """Solver artifacts of one fit, kept for diagnostics and audit tests.

    alpha/beta are the class/universum multipliers of the first plane,
    eta/theta those of the second plane.
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
    balanced_fallback: bool
    plan: SamplingPlan | None = None
    scores: ScoreWeights | None = None
    universum: np.ndarray | None = None


@dataclass(frozen=True)
class TwinModel:
    """Two trained hyperplanes plus everything needed to apply them.

    In kernel mode w1/w2 hold kernel-expansion coefficients against the
    retained reference matrix; prediction never touches raw training labels.
    """

    kind: str  # "utsvm" | "ifutsvm-id"
    mode: str  # "linear" | "kernel"
    w1: np.ndarray
    b1: float
    w2: np.ndarray
    b2: float
    reference: np.ndarray | None
    hyperparams: Hyperparams
    dual_report: DualReport | None = None
    rkhs_norm: bool = False  # use sqrt(w' K w) instead of ||w|| in distances

    @property
    def n_features(self) -> int:
        if self.mode == "kernel":
            return self.reference.shape[1]
        return self.w1.shape[0]


@dataclass(frozen=True)
class _Plane:
    """One dual in standard form (see module docstring)."""

    M: np.ndarray
    ridge: float
    H: np.ndarray
    lin: np.ndarray
    upper: np.ndarray
    sign: float


@dataclass(frozen=True)
class _Blocks:
    """Prepare stage: the parts of a fit that no penalty, tube or ridge changes.

    Plane i has proximal block M[i] and signed constraint rows H[i], class
    rows first and universum rows after them.  Its box bounds the class rows
    by its penalty times weights[i] and the universum rows by cu.
    """

    kind: str
    D: np.ndarray | None
    M: tuple[np.ndarray, np.ndarray]
    H: tuple[np.ndarray, np.ndarray]
    weights: tuple[np.ndarray, np.ndarray]
    trace_ridges: tuple[float, float] | None = None  # UTSVM's default delta per plane
    plan: SamplingPlan | None = None
    scores: ScoreWeights | None = None
    universum: np.ndarray | None = None


@dataclass(frozen=True)
class _Hessian:
    """Hessian stage of one plane: the Cholesky factor of M'M + ridge I and
    the symmetrised dual Hessian Q = H (M'M + ridge I)^{-1} H'."""

    factor: tuple
    Q: np.ndarray


class FitStages:
    """Last-key memo of the prepare and hessian stages, shared by consecutive fits.

    Fits with the same preparation key (training set, model kind, kernel,
    fuzzy parameters, seed, uniform scores, universum) reuse one set of
    blocks; those that also share a plane's ridge reuse that plane's Hessian.
    Only the latest blocks and the Hessians built on them are held, so a
    caller that orders its fits by key gets the reuse without keeping a
    lattice of arrays alive.
    """

    def __init__(self):
        self._key = None
        self._blocks = None
        self._hessians = [None, None]  # (ridge, _Hessian) per plane

    def blocks(self, train: Dataset, key: tuple, build) -> _Blocks:
        if self._blocks is None or self._key[0] is not train or self._key[1:] != key:
            self._key, self._blocks, self._hessians = (train, *key), build(), [None, None]
        return self._blocks

    def hessian(self, index: int, plane: _Plane) -> _Hessian:
        held = self._hessians[index]
        if held is None or held[0] != plane.ridge:
            held = self._hessians[index] = (plane.ridge, _hessian(plane))
        return held[1]


def _augment(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _hessian(plane: _Plane) -> _Hessian:
    MtM = plane.M.T @ plane.M
    factor = spd_factor(MtM, plane.ridge)
    S = cho_solve(factor, plane.H.T, check_finite=False)
    Q = plane.H @ S
    return _Hessian(factor, 0.5 * (Q + Q.T))


def _solve_plane(plane: _Plane, hess: _Hessian, tol: float,
                 max_iter: int) -> tuple[np.ndarray, QPSolution]:
    # residual tolerance scales with the box so huge penalty grids stay solvable
    tol_eff = tol * max(1.0, float(plane.upper.max(initial=0.0)))
    sol = solve_box_qp(BoxQP(hess.Q, plane.lin, plane.upper), tol=tol_eff, max_iter=max_iter)
    z = plane.sign * cho_solve(hess.factor, plane.H.T @ sol.z, check_finite=False)
    return z, sol


def primal_value(plane: _Plane, z: np.ndarray) -> float:
    """Primal objective at (w; b) = z with slacks at their optimal values."""
    Mz = plane.M @ z
    slack = np.maximum(0.0, plane.lin - plane.sign * (plane.H @ z))
    return float(0.5 * (Mz @ Mz) + 0.5 * plane.ridge * (z @ z) + plane.upper @ slack)


def _empty_block(width: int) -> np.ndarray:
    return np.zeros((0, width))


def _mapper(kernel: KernelSpec | None, D: np.ndarray | None):
    if kernel is None:
        return lambda X: np.atleast_2d(np.asarray(X, dtype=np.float64))
    return lambda X: gram_values(X, D, kernel)


def _utsvm_blocks(train: Dataset, universum: np.ndarray, kernel: KernelSpec | None) -> _Blocks:
    X1, X2 = train.positives(), train.negatives()
    D = np.vstack([X1, X2]) if kernel is not None else None
    mp = _mapper(kernel, D)
    Gp = _augment(mp(X1))
    En = _augment(mp(X2))
    Fu = _augment(mp(universum)) if universum.shape[0] else _empty_block(Gp.shape[1])
    # in kernel mode M is wide (m1 rows, m+1 columns): delta is then the
    # only regularizer acting on null(M), and a vanishing default makes
    # the dual unsolvable; linear-mode normal matrices are full rank and
    # tolerate a much smaller stabilization
    scale = 1e-7 if kernel is None else 1e-3
    return _Blocks(
        kind="utsvm", D=D, M=(Gp, En),
        H=(np.vstack([En, -Fu]), np.vstack([Gp, -Fu])),
        weights=(np.ones(En.shape[0]), np.ones(Gp.shape[0])),
        trace_ridges=tuple(scale * float(np.sum(M * M)) / M.shape[1] for M in (Gp, En)),
        universum=universum,
    )


def _ifutsvm_blocks(train: Dataset, plan: SamplingPlan, scores: ScoreWeights,
                    kernel: KernelSpec | None) -> _Blocks:
    X1, X2 = train.positives(), train.negatives()
    D = np.vstack([X1, X2]) if kernel is not None else None
    mp = _mapper(kernel, D)
    E = _augment(mp(X1))
    F = _augment(mp(X2))
    Fs = _augment(mp(plan.x2_star))
    if plan.balanced:
        G = Gs = _empty_block(E.shape[1])
    else:
        G = _augment(mp(plan.universum))
        Gs = _augment(mp(plan.universum_star))
    return _Blocks(
        kind="ifutsvm-id", D=D, M=(E, F),
        H=(np.vstack([Fs, -Gs]), np.vstack([E, G])),
        weights=(scores.s2[plan.x2_star_indices], scores.s1),
        plan=plan, scores=scores,
    )


def _planes(blocks: _Blocks, hp: Hyperparams) -> tuple[_Plane, _Plane]:
    """Both duals of one lattice point, assembled on prepared blocks."""
    if blocks.kind == "ifutsvm-id":
        ridges = (hp.c3, hp.c4)
    elif hp.delta is not None:
        ridges = (hp.delta, hp.delta)
    else:
        ridges = blocks.trace_ridges
    planes = []
    for M, H, weights, penalty, ridge, sign in zip(
            blocks.M, blocks.H, blocks.weights, (hp.c1, hp.c2), ridges, (-1.0, 1.0)):
        u = H.shape[0] - weights.shape[0]
        planes.append(_Plane(
            M=M, ridge=ridge, H=H,
            lin=np.concatenate([np.ones(weights.shape[0]), (hp.epsilon - 1.0) * np.ones(u)]),
            upper=np.concatenate([penalty * weights, hp.cu * np.ones(u)]),
            sign=sign,
        ))
    return planes[0], planes[1]


def _split_coefficients(z: np.ndarray, which: str) -> tuple[np.ndarray, float]:
    w, b = z[:-1].copy(), float(z[-1])
    if float(np.linalg.norm(w)) < DEGENERATE_NORM:
        raise TrainingError(f"degenerate plane {which}: ||w|| < {DEGENERATE_NORM}")
    return w, b


def _fit(train: Dataset, hp: Hyperparams, key: tuple, prepare, stages: FitStages | None,
         tol: float, max_iter: int) -> TwinModel:
    """Solve stage: both box QPs of one lattice point on memoized blocks and Hessians."""
    stages = stages if stages is not None else FitStages()
    blocks = stages.blocks(train, key, prepare)
    (z1, sol1), (z2, sol2) = [_solve_plane(plane, stages.hessian(i, plane), tol, max_iter)
                              for i, plane in enumerate(_planes(blocks, hp))]
    w1, b1 = _split_coefficients(z1, "1")
    w2, b2 = _split_coefficients(z2, "2")
    k1, k2 = (weights.shape[0] for weights in blocks.weights)
    report = DualReport(
        alpha=sol1.z[:k1], beta=sol1.z[k1:],
        eta=sol2.z[:k2], theta=sol2.z[k2:],
        kkt_residual_1=sol1.kkt_residual, kkt_residual_2=sol2.kkt_residual,
        dual_objective_1=sol1.objective, dual_objective_2=sol2.objective,
        iterations_1=sol1.iterations, iterations_2=sol2.iterations,
        balanced_fallback=blocks.plan is not None and blocks.plan.balanced,
        plan=blocks.plan, scores=blocks.scores, universum=blocks.universum,
    )
    return TwinModel(
        kind=blocks.kind, mode="kernel" if hp.kernel else "linear",
        w1=w1, b1=b1, w2=w2, b2=b2, reference=blocks.D, hyperparams=hp,
        dual_report=report,
    )


def fit_utsvm(train: Dataset, universum: np.ndarray | None, hp: Hyperparams,
              *, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
              stages: FitStages | None = None) -> TwinModel:
    """Train the UTSVM baseline; an empty universum drops its multipliers.

    `stages` lets consecutive fits share their prepared blocks and Hessians.
    """
    if train.m1 == 0 or train.m2 == 0:
        raise TrainingError("both classes must be nonempty")
    if universum is None:
        universum = np.zeros((0, train.n))
    universum = np.atleast_2d(np.asarray(universum, dtype=np.float64))
    if universum.shape[0] and universum.shape[1] != train.n:
        raise ValueError("universum feature dimension does not match the data")
    key = ("utsvm", hp.kernel, universum.shape, universum.tobytes())
    return _fit(train, hp, key, lambda: _utsvm_blocks(train, universum, hp.kernel),
                stages, tol, max_iter)


def fit_ifutsvm_id(train: Dataset, hp: Hyperparams, *, uniform: bool = False,
                   tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
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
        return _ifutsvm_blocks(train, build_plan(train, hp.seed), scores, hp.kernel)

    key = ("ifutsvm-id", hp.kernel, hp.fuzzy, hp.seed, uniform)
    return _fit(train, hp, key, prepare, stages, tol, max_iter)


def duality_gaps(model: TwinModel, train: Dataset) -> tuple[float, float]:
    """Reassemble both primals and return |primal - dual| per plane.

    For UTSVM the comparison is against the delta-regularized primal actually
    solved (the stabilization ridge enters the objective as delta/2 ||(w;b)||^2).
    """
    if model.dual_report is None:
        raise ValueError("model carries no dual report")
    rep = model.dual_report
    kernel = model.hyperparams.kernel
    if model.kind == "ifutsvm-id":
        blocks = _ifutsvm_blocks(train, rep.plan, rep.scores, kernel)
    else:
        blocks = _utsvm_blocks(train, rep.universum, kernel)
    plane1, plane2 = _planes(blocks, model.hyperparams)
    z1 = np.concatenate([model.w1, [model.b1]])
    z2 = np.concatenate([model.w2, [model.b2]])
    gap1 = abs(primal_value(plane1, z1) - rep.dual_objective_1)
    gap2 = abs(primal_value(plane2, z2) - rep.dual_objective_2)
    return gap1, gap2


def _plane_norm(model: TwinModel, w: np.ndarray) -> float:
    if model.mode == "kernel" and model.rkhs_norm:
        K = gram_values(model.reference, model.reference, model.hyperparams.kernel)
        return float(np.sqrt(max(w @ K @ w, 0.0)))
    return float(np.linalg.norm(w))


def _decision_values(model: TwinModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"expected {model.n_features} features, got {X.shape[1]}"
        )
    Phi = gram_values(X, model.reference, model.hyperparams.kernel) \
        if model.mode == "kernel" else X
    f1 = Phi @ model.w1 + model.b1
    f2 = Phi @ model.w2 + model.b2
    return f1, f2


def decision_distances(model: TwinModel, x: np.ndarray):
    """Distance of x to each plane, |f_i(x)| / ||w_i||.

    Accepts a single sample (returns two floats) or a matrix (returns two
    arrays).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    f1, f2 = _decision_values(model, x)
    d1 = np.abs(f1) / _plane_norm(model, model.w1)
    d2 = np.abs(f2) / _plane_norm(model, model.w2)
    if single:
        return float(d1[0]), float(d2[0])
    return d1, d2


def predict(model: TwinModel, x: np.ndarray):
    """Label of the nearer plane; ties resolve to +1 (the minority class)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    d1, d2 = decision_distances(model, np.atleast_2d(x))
    labels = np.where(d1 <= d2, 1, -1).astype(np.int64)
    if single:
        return int(labels[0])
    return labels


# ---------------------------------------------------------------------------
# serialization


def _header_dict(model: TwinModel) -> dict:
    hp = model.hyperparams
    return {
        "kind": model.kind,
        "mode": model.mode,
        "n": int(model.n_features),
        "m": int(model.reference.shape[0]) if model.mode == "kernel" else 0,
        "coef_len": int(model.w1.shape[0]),
        "rkhs_norm": bool(model.rkhs_norm),
        "hyperparams": {
            "c1": hp.c1, "c2": hp.c2, "c3": hp.c3, "c4": hp.c4, "cu": hp.cu,
            "epsilon": hp.epsilon,
            "width": hp.kernel.width if hp.kernel else None,
            "delta": hp.delta,
            "eta": hp.fuzzy.eta, "rho": hp.fuzzy.rho,
            "seed": hp.seed,
        },
    }


def _hyperparams_from_header(h: dict) -> Hyperparams:
    hp = h["hyperparams"]
    kernel = KernelSpec(hp["width"]) if hp["width"] is not None else None
    return Hyperparams(
        c1=hp["c1"], c2=hp["c2"], c3=hp["c3"], c4=hp["c4"], cu=hp["cu"],
        epsilon=hp["epsilon"], kernel=kernel, delta=hp["delta"],
        fuzzy=FuzzyParams(eta=hp["eta"], rho=hp["rho"]), seed=hp["seed"],
    )


def save_model(model: TwinModel, path) -> None:
    """Write the binary model file: magic, JSON header, little-endian f64 blocks."""
    header = json.dumps(_header_dict(model), sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
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
    """Read a binary model file written by save_model."""
    from .data import ParseError

    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ParseError("not a twin-SVM model file")
    off = len(MAGIC)
    (hlen,) = struct.unpack_from("<I", blob, off)
    off += 4
    header = json.loads(blob[off:off + hlen].decode("utf-8"))
    off += hlen
    coef_len = header["coef_len"]

    def take(count: int) -> np.ndarray:
        nonlocal off
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).copy()
        off += 8 * count
        return arr

    w1 = take(coef_len)
    b1 = float(take(1)[0])
    w2 = take(coef_len)
    b2 = float(take(1)[0])
    reference = None
    if header["mode"] == "kernel":
        reference = take(header["m"] * header["n"]).reshape(header["m"], header["n"])
    return TwinModel(
        kind=header["kind"], mode=header["mode"], w1=w1, b1=b1, w2=w2, b2=b2,
        reference=reference, hyperparams=_hyperparams_from_header(header),
        rkhs_norm=header["rkhs_norm"],
    )


def save_model_json(model: TwinModel, path) -> None:
    """Text twin of the binary format, arrays spelled out as JSON lists."""
    doc = _header_dict(model)
    doc["w1"] = model.w1.tolist()
    doc["b1"] = model.b1
    doc["w2"] = model.w2.tolist()
    doc["b2"] = model.b2
    if model.mode == "kernel":
        doc["reference"] = model.reference.tolist()
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model_json(path) -> TwinModel:
    with open(path) as fh:
        doc = json.load(fh)
    reference = None
    if doc["mode"] == "kernel":
        reference = np.asarray(doc["reference"], dtype=np.float64)
    return TwinModel(
        kind=doc["kind"], mode=doc["mode"],
        w1=np.asarray(doc["w1"], dtype=np.float64), b1=float(doc["b1"]),
        w2=np.asarray(doc["w2"], dtype=np.float64), b2=float(doc["b2"]),
        reference=reference, hyperparams=_hyperparams_from_header(doc),
        rkhs_norm=doc["rkhs_norm"],
    )


def with_rkhs_norm(model: TwinModel, enabled: bool = True) -> TwinModel:
    """Return a copy that measures plane distances in the RKHS metric."""
    return replace(model, rkhs_norm=enabled)
