"""The benchmark's per-layer trace wraps names that ifutsvm modules look up in
each other; this checks that every one of them still exists and is called
where the trace expects it, so a refactor cannot silently blind the trace."""

import sys
from pathlib import Path

import pytest

from ifutsvm import GridSpec, Hyperparams, KernelSpec, evaluation, fit_ifutsvm_id

from conftest import make_blobs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_install_wraps_every_layer_and_nests_scoring_gram(tmp_path):
    rec, patches = tracing.Recorder(tmp_path), tracing.Patches()
    tracing.install(rec, patches)
    try:
        hp = Hyperparams(c1=1.0, c2=1.0, c3=0.1, c4=0.1, cu=0.5,
                         kernel=KernelSpec(1.0), seed=0)
        fit_ifutsvm_id(make_blobs(6, 14, seed=0), hp)
    finally:
        patches.restore()
    spans = rec.spans
    names = {span["name"] for span in spans}
    assert {"membership.scores", "sampling.plan", "qp.factor", "qp.boxqp", "qp.solve",
            "models.hessian"} <= names
    assert any(s["name"] == "kernels.gram" and s["parent"] == "membership.scores"
               for s in spans)


@pytest.mark.parametrize("kind", ["ifutsvm-id", "utsvm"])
def test_fit_model_spans_of_both_kinds(tmp_path, kind):
    # fold fits and refits enter through evaluation.fit_model, which
    # dispatches to the fit of each kind and draws UTSVM's universum (at
    # width 1 this UTSVM dual does not converge, at width 4 it does)
    rec, patches = tracing.Recorder(tmp_path), tracing.Patches()
    tracing.install(rec, patches)
    try:
        hp = Hyperparams(c1=1.0, c2=1.0, c3=0.1, c4=0.1, cu=0.5,
                         kernel=KernelSpec(4.0), seed=0)
        evaluation.fit_model(kind, make_blobs(6, 14, seed=0), hp)
    finally:
        patches.restore()
    parents = {(span["name"], span["parent"]) for span in rec.spans}
    expected = {("evaluation.fit", None), ("models.fit", "evaluation.fit"),
                ("kernels.gram", "models.fit"), ("models.hessian", "models.fit"),
                ("qp.solve", "models.fit")}
    if kind == "utsvm":
        expected |= {("sampling.universum", "evaluation.fit")}
    else:
        expected |= {("membership.scores", "models.fit"), ("sampling.plan", "models.fit")}
    assert expected <= parents
    # (w; b) is recovered inside each plane's qp.solve span (so no span is
    # models.recover); each nests in the fit and carries the sweeps and the KKT
    # residual over the tolerance that qp.solve.kkt_max reads
    solves = [span for span in rec.spans if span["name"] == "qp.solve"]
    assert len(solves) >= 2 and all(span["parent"] == "models.fit" for span in solves)
    assert all(span["sweeps"] > 0 and 0.0 <= span["kkt_tol"] <= 1.0 for span in solves)


def test_search_maps_validation_folds_through_the_traced_gram(tmp_path):
    # a kernel search maps each validation fold itself, outside any fit, and
    # that Gram evaluation must still be seen as kernels.gram
    rec, patches = tracing.Recorder(tmp_path), tracing.Patches()
    tracing.install(rec, patches)
    try:
        grid = GridSpec(c1=(1.0,), c3=(0.1,), cu=(0.1, 1.0), epsilon=(0.1,), width=(1.0, 4.0))
        evaluation.grid_search_cv(make_blobs(8, 24, seed=0), "ifutsvm-id", grid, k=2, seed=0)
    finally:
        patches.restore()
    assert any(span["name"] == "kernels.gram" and span["parent"] == "evaluation.cv"
               for span in rec.spans)
