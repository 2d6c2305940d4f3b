import copy
import ctypes
import gc
import os
import pickle
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import cho_solve, cython_lapack

import ifutsvm
from ifutsvm import (BoxQP, FactorizationError, NonConvergenceError, NumericalError, qp,
                     solve_box_qp)
from ifutsvm.qp import NonFiniteError, spd_factor

from oracle_utils import (active_set_polish, full_check_box_qp, grid_box_qp_oracle, kkt_residual,
                          qp_objective_rows, random_box_qp)


class TestSolveBoxQP:
    def test_interior_optimum(self):
        # maximize z - z^2/2 on [0, 10]: optimum 1, value 0.5
        sol = solve_box_qp(BoxQP(np.array([[1.0]]), np.array([1.0]), np.array([10.0])))
        assert_allclose(sol.z, [1.0], atol=1e-9)
        assert_allclose(sol.objective, 0.5, atol=1e-9)

    def test_clipped_at_upper_bound(self):
        # maximize 5z - z^2/2 on [0, 2]: clipped at 2, value 8
        sol = solve_box_qp(BoxQP(np.array([[1.0]]), np.array([5.0]), np.array([2.0])))
        assert_allclose(sol.z, [2.0])
        assert_allclose(sol.objective, 8.0)

    def test_two_dimensional_against_full_grid(self):
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        c = np.array([1.0, 1.0])
        upper = np.array([1.0, 1.0])
        sol = solve_box_qp(BoxQP(Q, c, upper))
        z_ref = grid_box_qp_oracle(Q, c, upper)
        assert np.max(np.abs(sol.z - z_ref)) <= 2e-3

    def test_feasibility_is_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            Q, c, upper = random_box_qp(rng)
            sol = solve_box_qp(BoxQP(Q, c, upper))
            assert np.all(sol.z >= 0.0) and np.all(sol.z <= upper)
            assert sol.kkt_residual <= 1e-6

    def test_small_instances_match_grid_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            Q, c, upper = random_box_qp(rng)
            sol = solve_box_qp(BoxQP(Q, c, upper), tol=1e-6)
            z_ref = grid_box_qp_oracle(Q, c, upper)
            assert np.max(np.abs(sol.z - z_ref)) <= 2e-3

    def test_zero_upper_bound_pins_variable(self):
        Q = np.eye(2)
        sol = solve_box_qp(BoxQP(Q, np.array([3.0, 3.0]), np.array([5.0, 0.0])))
        assert sol.z[1] == 0.0
        assert_allclose(sol.z[0], 3.0, atol=1e-9)

    def test_zero_rows_sweep_to_their_bounds(self):
        # a zero diagonal entry of a PSD Q means a zero row, so the objective is
        # linear in that coordinate: the floored coordinate step must send it
        # to the bound its linear term favours, and the rest must still solve
        cases = [(np.zeros((1, 1)), np.array([1.0]), np.array([2.0])),
                 (np.zeros((1, 1)), np.array([-1.0]), np.array([2.0]))]
        rng = np.random.default_rng(6)
        cases += [psd_box_qp_with_zero_rows(rng) for _ in range(20)]
        for Q, c, upper in cases:
            sol = solve_box_qp(BoxQP(Q, c, upper))
            flat = np.diag(Q) == 0.0
            assert_array_equal(sol.z[flat], np.where(c[flat] > 0.0, upper[flat], 0.0))
            assert np.max(np.abs(sol.z - grid_box_qp_oracle(Q, c, upper))) <= 2e-3

    def test_nonconvergence_carries_best_iterate(self):
        # tridiagonal coupling with an interior optimum: one sweep is not enough
        Q = np.array([[2.0, 1.0, 0.0, 0.0],
                      [1.0, 2.0, 1.0, 0.0],
                      [0.0, 1.0, 2.0, 1.0],
                      [0.0, 0.0, 1.0, 2.0]])
        c = np.ones(4)
        upper = 10.0 * np.ones(4)
        with pytest.raises(NonConvergenceError) as err:
            solve_box_qp(BoxQP(Q, c, upper), tol=1e-14, max_iter=1)
        best = err.value.best
        assert best.z.shape == c.shape
        assert best.kkt_residual > 1e-14

    def test_monotone_ascent_across_sweeps(self):
        # the smallest positive tolerance keeps every solve sweeping to its limit
        rng = np.random.default_rng(3)
        Q, c, upper = random_box_qp(rng)
        problem = BoxQP(Q, c, upper)
        prev = 0.0
        for max_iter in range(1, 51):
            try:
                z = solve_box_qp(problem, tol=np.finfo(float).tiny, max_iter=max_iter).z
            except NonConvergenceError as err:
                z = err.best.z
            obj = float(c @ z - 0.5 * z @ (Q @ z))
            assert obj >= prev - 1e-10 * (1.0 + abs(prev))
            prev = obj

    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError):
            BoxQP(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), np.ones(2))

    @pytest.mark.parametrize("part, index", [("Q", (0, 1)), ("Q", (1, 1)), ("c", 0),
                                             ("upper", 1)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, part, index, value):
        # a NaN passes both the symmetry and the sign check and would then run
        # the solver to its sweep limit; it must be refused up front instead
        parts = {"Q": np.eye(2), "c": np.ones(2), "upper": np.ones(2)}
        parts[part][index] = value
        with pytest.raises(ValueError, match="finite") as err:
            BoxQP(parts["Q"], parts["c"], parts["upper"])
        assert isinstance(err.value, NumericalError)

    def test_stores_the_symmetric_part(self):
        rng = np.random.default_rng(8)
        B = rng.normal(size=(6, 6))
        Q = B @ B.T
        Q_sym = 0.5 * (Q + Q.T)
        assert_array_equal(BoxQP(Q_sym, np.ones(6), np.ones(6)).Q, Q_sym)
        near = Q_sym + 1e-13 * np.triu(rng.normal(size=(6, 6)), 1)
        stored = BoxQP(near, np.ones(6), np.ones(6)).Q
        assert_array_equal(stored, stored.T)
        assert_array_equal(stored, 0.5 * (near + near.T))

    def test_empty_problem(self):
        sol = solve_box_qp(BoxQP(np.zeros((0, 0)), np.zeros(0), np.zeros(0)))
        assert sol.z.shape == (0,) and sol.objective == 0.0


@pytest.mark.parametrize("call, message", [
    (lambda: BoxQP(np.eye(3)[:2], np.ones(2), np.ones(2)),
     "Q must be square and match the linear term"),
    (lambda: solve_box_qp(BoxQP(np.eye(2), np.ones(2), np.ones(2)), tol=0.0),
     "tol must be positive"),
], ids=["non-square-Q", "zero-tol"])
def test_box_qp_rejects(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def psd_box_qp_with_zero_rows(rng):
    """random_box_qp-style instance with some rows and columns of Q set to zero."""
    Q, c, upper = random_box_qp(rng)
    flat = rng.random(c.size) < 0.4
    flat[rng.integers(c.size)] = True
    Q[flat, :] = 0.0
    Q[:, flat] = 0.0
    return Q, c, upper


def psd_box_qp(rng, k, rank, zero_box_share=0.0, asymmetry=0.0):
    """Q = B B' of the given rank (scaled over decades), mixed-sign c, random boxes.

    zero_box_share pins that share of the boxes to [0, 0]; asymmetry adds
    noise of that relative size to Q, below BoxQP's symmetry tolerance.
    """
    B = rng.normal(size=(k, rank)) * 10.0 ** rng.uniform(-1, 1, size=(k, 1))
    Q = B @ B.T
    if asymmetry:
        Q = Q + asymmetry * np.abs(Q).max() * rng.normal(size=(k, k))
    c = rng.normal(size=k) * rng.uniform(0.1, 5.0)
    upper = rng.uniform(0.0, 3.0, size=k)
    upper[rng.random(k) < zero_box_share] = 0.0
    return BoxQP(Q, c, upper)


def solved(problem, max_iter):
    """(converged, solution) of a solve, the NonConvergenceError's best iterate
    when it does not converge."""
    try:
        return True, solve_box_qp(problem, max_iter=max_iter)
    except NonConvergenceError as err:
        return False, err.best


def solution_bits(problem, max_iter):
    """Everything solve_box_qp reports, as exact bytes, converged or not."""
    converged, sol = solved(problem, max_iter)
    return (converged, sol.z.tobytes(), sol.objective.hex(), sol.kkt_residual.hex(),
            sol.iterations, sol.checks, sol.refinements, sol.accepted, sol.least_squares)


SWEEP_CASES = pytest.mark.parametrize("k, rank, zero_box_share, asymmetry, max_iter, seed", [
    (6, 6, 0.0, 0.0, 10_000, 10),
    (40, 40, 0.0, 0.0, 10_000, 11),
    (40, 5, 0.0, 0.0, 300, 12),
    (60, 20, 0.3, 0.0, 300, 13),
    (30, 30, 1.0, 0.0, 10_000, 14),
    (50, 12, 0.2, 1e-13, 15, 15),
    (200, 141, 0.0, 0.0, 40, 16),
    (220, 141, 0.2, 1e-13, 15, 17),
], ids=["small", "full-rank", "rank-deficient", "zero-boxes", "all-boxes-zero",
        "near-symmetric", "keel-size", "keel-size-near-symmetric"])


def assert_matches_reference(problems, max_iter):
    """The solver reports the bits, the sweep count, the refinements and, short
    of convergence, the best iterate of the scalar reference loop with a full
    check per sweep."""
    for problem in problems:
        converged, z, objective, residual, sweeps, refinements = full_check_box_qp(
            problem, qp.DEFAULT_TOL, max_iter)
        ok, sol = solved(problem, max_iter)
        assert (ok, sol.z.tobytes(), sol.objective.hex(), sol.kkt_residual.hex(),
                sol.iterations) == (converged, z.tobytes(), objective.hex(), residual.hex(),
                                    sweeps)
        assert (sol.refinements, sol.accepted, sol.least_squares) == (
            len(refinements), sum(kept for _, kept, _ in refinements),
            sum(lstsq for *_, lstsq in refinements))


class TestVectorisedSweep:
    """The C solver must reproduce the scalar reference loop bit for bit.

    The active-set refinement runs as soon as a sweep leaves the bound pattern
    unchanged, so most solves here end in a refinement step; the sweeps before
    it must still match, or the pattern, the step and the sweep count differ.
    Each problem is also cut short, where the loop's state crosses between C
    and Python at other points.
    """

    @SWEEP_CASES
    def test_matches_scalar_loop(self, k, rank, zero_box_share, asymmetry, max_iter, seed):
        problem = psd_box_qp(np.random.default_rng(seed), k, rank, zero_box_share,
                             asymmetry)
        for cut in (1, 7, 33, max_iter):
            assert_matches_reference([problem], cut)

    def test_random_problems_match_scalar_loop(self):
        rng = np.random.default_rng(18)
        problems = []
        for _ in range(40):
            k = int(rng.integers(1, 25))
            problems.append(psd_box_qp(rng, k, int(rng.integers(1, k + 1)),
                                       zero_box_share=0.2))
        assert_matches_reference(problems, 200)

    def test_four_hundred_random_problems_match_scalar_loop(self):
        # rank-deficient, zero-row and zero-box problems, each cut at one of
        # 1, 7, 33 or 10,000 sweeps in turn
        rng = np.random.default_rng(27)
        for n in range(400):
            if n % 5 == 0:
                problem = BoxQP(*psd_box_qp_with_zero_rows(rng))
            else:
                k = int(rng.integers(1, 30))
                problem = psd_box_qp(rng, k, int(rng.integers(1, k + 1)),
                                     zero_box_share=float(rng.choice([0.0, 0.3, 1.0])))
            assert_matches_reference([problem], (1, 7, 33, 10_000)[n % 4])


class TestOneCoordinateProbe:
    """The convergence test reads one coordinate until it can pass; everything
    the solver reports must equal a full KKT check after every sweep."""

    @SWEEP_CASES
    def test_matches_a_full_check_after_every_sweep(self, k, rank, zero_box_share,
                                                    asymmetry, max_iter, seed):
        problem = psd_box_qp(np.random.default_rng(seed), k, rank, zero_box_share,
                             asymmetry)
        assert_matches_reference([problem], max_iter)

    @pytest.mark.parametrize("max_iter", [10_000, 1, 7, 33], ids=lambda n: f"max_iter={n}")
    def test_random_rank_deficient_and_zero_box_problems(self, max_iter):
        rng = np.random.default_rng(19)
        problems = [BoxQP(*psd_box_qp_with_zero_rows(rng)) for _ in range(10)]
        for _ in range(30):
            k = int(rng.integers(1, 40))
            problems.append(psd_box_qp(rng, k, int(rng.integers(1, k + 1)),
                                       zero_box_share=float(rng.choice([0.0, 0.3, 1.0]))))
        assert_matches_reference(problems, max_iter)

    def test_full_check_runs_on_fewer_sweeps_than_were_run(self):
        problem = psd_box_qp(np.random.default_rng(11), 40, 5)  # rank-deficient
        converged, sol = solved(problem, 10_000)
        assert converged and sol.iterations > 100 and 0 < sol.checks < sol.iterations / 10


class TestActiveSetRefinement:
    """The free block is solved as soon as one sweep leaves the bound pattern
    unchanged, once per pattern, by Cholesky unless the block is singular.
    Each solution counts the refinements tried, kept and solved by least
    squares; a solve cut at max_iter runs the same sweeps up to its limit, so
    the counts of cut solves show in which sweep each refinement ran."""

    @staticmethod
    def within(problem, max_iter):
        """The solution after the first max_iter sweeps of a solve."""
        return solved(problem, max_iter)[1]

    def test_a_settled_pattern_is_refined_at_once(self):
        # two nearly parallel coordinates: sweeps crawl along the valley, but
        # both are free after the first sweep, so the second one refines
        problem = BoxQP(np.array([[1.0, 0.999], [0.999, 1.0]]), np.ones(2), np.full(2, 10.0))
        assert self.within(problem, 1).refinements == 0  # none in sweep 1
        sol = solve_box_qp(problem)
        assert (sol.refinements, sol.accepted) == (1, 1)
        assert sol.iterations == 2
        assert_allclose(sol.z, np.full(2, 1.0 / 1.999), rtol=1e-12)

    def test_solves_return_in_the_sweep_of_their_accepted_step(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            problem = psd_box_qp(rng, 40, 40)
            sol = solve_box_qp(problem)
            # the first refinement comes within 15 sweeps
            assert self.within(problem, 15).refinements
            # and the last accepted one in the sweep the solve returned in
            assert sol.accepted and self.within(problem, sol.iterations - 1).accepted == (
                sol.accepted - 1)

    def test_each_pattern_is_refined_at_most_once(self):
        # the reference refines each repeated pattern once, so its patterns are
        # distinct, and the solver, on the same sweeps, refines as often
        rng = np.random.default_rng(24)
        for _ in range(10):
            problem = psd_box_qp(rng, 40, 5, zero_box_share=0.2)
            sol = solve_box_qp(problem, max_iter=2_000)
            *_, refinements = full_check_box_qp(problem, qp.DEFAULT_TOL, 2_000)
            patterns = [pattern for pattern, *_ in refinements]
            assert sol.refinements == len(patterns) == len(set(patterns)) > 0

    def test_a_pattern_refined_before_is_not_refined_when_it_recurs(self):
        # here a refined pattern gives way to others and then settles again: a
        # reference that forgets it refines it a second time, and the solver
        # matches the reference that remembers every pattern it refined
        problem = psd_box_qp(np.random.default_rng(126), 10, 2)
        *_, forgetful = full_check_box_qp(problem, qp.DEFAULT_TOL, 10_000, remember=False)
        *_, refinements = full_check_box_qp(problem, qp.DEFAULT_TOL, 10_000)
        assert len(forgetful) > len(refinements) > 0
        assert_matches_reference([problem], 10_000)

    def test_a_rejected_pattern_is_not_refined_again(self):
        # a singular free block whose min-norm step, clipped to the box, descends:
        # with its one refinement rejected the sweeps must finish alone, crawling
        # along the valley on one pattern until z_2 reaches its bound
        problem = singular_valley()
        sol = solve_box_qp(problem)
        assert (sol.refinements, sol.accepted, sol.least_squares) == (1, 0, 1)
        assert sol.iterations > 100
        for n in range(2, sol.iterations - 1):
            best = self.within(problem, n)
            assert best.refinements == 1 and np.all((best.z > 0.0) & (best.z < problem.upper))

    def test_positive_definite_blocks_never_take_least_squares(self):
        # every principal block of a positive-definite Q is positive definite
        rng = np.random.default_rng(25)
        refinements = least_squares = 0
        for _ in range(25):
            Q, c, upper = random_box_qp(rng)
            sol = solve_box_qp(BoxQP(Q, c, upper))
            assert np.max(np.abs(sol.z - grid_box_qp_oracle(Q, c, upper))) <= 2e-3
            refinements += sol.refinements
            least_squares += sol.least_squares
        assert refinements and not least_squares

    def test_singular_blocks_take_least_squares(self):
        # k > rank, as in linear mode: a block of more free coordinates than
        # the rank is singular, and its z is not unique, so the oracle checks
        # the objective; the least-squares steps are the reference's, bit for bit
        rng = np.random.default_rng(26)
        least_squares = 0
        for _ in range(8):
            problem = psd_box_qp(rng, 8, 1)
            problem = BoxQP(problem.Q, np.abs(problem.c), problem.upper)
            sol = solve_box_qp(problem)
            z_ref = grid_box_qp_oracle(problem.Q, problem.c, problem.upper)
            best = qp_objective_rows(z_ref[None, :], problem.Q, problem.c)[0]
            assert np.all(sol.z >= 0.0) and np.all(sol.z <= problem.upper)
            assert sol.kkt_residual <= 1e-6 and sol.objective >= best
            assert_matches_reference([problem], 10_000)
            least_squares += sol.least_squares
        assert least_squares

    def test_an_exactly_singular_block_takes_the_min_norm_step(self, monkeypatch):
        # the reference refinement, which the solver's matches bit for bit:
        # rows 0 and 1 are equal, so the factorization's second pivot is 0
        Q = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        problem = BoxQP(Q, np.ones(3), np.full(3, 5.0))
        fallbacks, lstsq = [], np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kwargs: fallbacks.append(1) or lstsq(*args, **kwargs))
        z = np.array([0.2, 0.1, 0.1])
        polished, q, least_squares = active_set_polish(problem, z, Q @ z,
                                                       np.ones(3, dtype=bool))
        assert least_squares and len(fallbacks) == 1
        assert_allclose(polished, [0.5, 0.5, 0.5], rtol=1e-12)
        assert_allclose(q, Q @ polished, rtol=1e-12)
        # the solver on a box whose sweeps settle with all three free: its one
        # refinement meets the zero pivot, takes least squares and is kept
        monkeypatch.undo()
        valley = BoxQP(Q, np.array([1.0, 1.001, 1.0]), problem.upper)
        refinements = full_check_box_qp(valley, qp.DEFAULT_TOL, 10_000)[-1]
        assert refinements == [(b"\x01\x01\x01", True, True)]
        assert_matches_reference([valley], 10_000)

    def test_least_squares_cut_singular_values_at_lstsqs_rcond(self):
        # a free block with one singular value between eps and k eps times the
        # largest: np.linalg.lstsq(rcond=None) cuts it at eps max(m, n), and
        # a solver that cut it at eps alone would take another step
        for seed in (12, 267):
            problem = tiny_eigenvalue_box_qp(np.random.default_rng(seed))
            assert solve_box_qp(problem, max_iter=200).least_squares
            assert_matches_reference([problem], 200)


def tiny_eigenvalue_box_qp(rng):
    """A PSD Q of rank r with one more eigenvalue between 1 and 6 eps times the
    largest, a positive c and a wide box."""
    k = int(rng.integers(3, 9))
    r = int(rng.integers(1, k))
    V, _ = np.linalg.qr(rng.normal(size=(k, k)))
    eigenvalues = np.zeros(k)
    eigenvalues[:r] = 10.0 ** rng.uniform(-1, 1, r)
    eigenvalues[r] = eigenvalues[:r].max() * rng.uniform(1, 6) * np.finfo(float).eps
    return BoxQP((V * eigenvalues) @ V.T, np.abs(rng.normal(size=k)), np.full(k, 10.0))


def singular_valley():
    """A rank-one Q whose one refinement takes least squares and is rejected."""
    return BoxQP(np.ones((2, 2)), np.array([1.0, 1.001]), np.array([10.0, 0.3]))


def singular_problems(rng, n):
    """Problems whose refinements take least squares (see
    test_singular_blocks_take_least_squares)."""
    problems = []
    for _ in range(n):
        problem = psd_box_qp(rng, 8, 1)
        problems.append(BoxQP(problem.Q, np.abs(problem.c), problem.upper))
    return problems


class TestOneCallPerSolve:
    """The solve is one C call, least squares included; its state lives on the
    heap of the call, never in statics."""

    def test_two_threads_at_once_get_the_serial_bits(self):
        rng = np.random.default_rng(28)
        problems = [singular_valley(), *singular_problems(rng, 5)]
        problems += [psd_box_qp(rng, int(k), int(k) // 2 + 1, zero_box_share=0.2)
                     for k in rng.integers(5, 80, size=14)]
        serial = [solution_bits(problem, 10_000) for problem in problems]
        assert sum(bits[-1] for bits in serial) > 0  # some solves took least squares
        with ThreadPoolExecutor(2) as pool:
            for _ in range(3):
                assert list(pool.map(solution_bits, problems, [10_000] * 20)) == serial


class TestEntryPoints:
    """numpy's BLAS and scipy's LAPACK are found by name once, at import, and a
    missing one fails the import with the library and the symbol."""

    def test_a_missing_blas_symbol_names_the_library_and_the_symbol(self, monkeypatch):
        monkeypatch.setattr(qp, "_DGEMV_NAMES", ("no_such_dgemv64_", "no_such_dgemv"))
        with pytest.raises(ImportError) as err:
            qp._entry_points()
        message = str(err.value)
        assert qp._umath.__file__ in message
        assert "no_such_dgemv64_" in message and "no_such_dgemv" in message

    def test_a_missing_lapack_symbol_names_the_module_and_the_symbol(self):
        with pytest.raises(ImportError) as err:
            qp._capsule(cython_lapack, "no_such_potrf")
        assert cython_lapack.__file__ in str(err.value) and "no_such_potrf" in str(err.value)

    def test_a_missing_least_squares_symbol_names_the_library_and_the_symbol(self, monkeypatch):
        monkeypatch.setattr(qp, "_GELSD_NAMES", ("no_such_dgelsd_64_", "no_such_dgelsd_"))
        with pytest.raises(ImportError) as err:
            qp._entry_points()
        message = str(err.value)
        assert qp._umath_linalg.__file__ in message
        assert "no_such_dgelsd_64_" in message and "no_such_dgelsd_" in message

    def test_the_entry_points_are_numpys_blas_and_scipys_lapack(self):
        blas_ilp64, dgemv, ddot, lapack_ilp64, dgelsd, dpotrf, dpotrs = qp._entry_points()
        umath = ctypes.CDLL(qp._umath.__file__)
        names = [name for name in qp._DGEMV_NAMES if hasattr(umath, name)]
        assert blas_ilp64 == names[0].endswith("64_")
        assert dgemv == ctypes.cast(getattr(umath, names[0]), ctypes.c_void_p).value
        assert ddot == ctypes.cast(getattr(umath, names[0].replace("dgemv", "ddot")),
                                   ctypes.c_void_p).value
        # the dgelsd behind np.linalg.lstsq, found through its module's handle
        linalg = ctypes.CDLL(qp._umath_linalg.__file__)
        names = [name for name in qp._GELSD_NAMES if hasattr(linalg, name)]
        assert lapack_ilp64 == names[0].endswith("64_")
        assert dgelsd == ctypes.cast(getattr(linalg, names[0]), ctypes.c_void_p).value
        assert 0 not in (dpotrf, dpotrs) and dpotrf != dpotrs


def test_the_solver_is_built_without_fma_contraction_or_fast_math():
    # every digest and record depends on the C code rounding as numpy does:
    # no fused multiply-add, no reassociation and no instructions beyond the
    # baseline that the reference ran on
    flags = qp._COMPILE[1:]
    assert "-ffp-contract=off" in flags
    assert not [flag for flag in flags
                if flag in ("-ffast-math", "-Ofast") or flag.startswith("-march")]


def test_solver_source_compiles_cleanly_as_c99():
    source = Path(qp.__file__).with_name("_solve.c")
    subprocess.run(["gcc", "-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                    str(source)], check=True, capture_output=True, text=True)


class TestWithBounds:
    """BoxQP with another c and upper on an already checked Q."""

    @staticmethod
    def base(k=5, seed=20):
        return psd_box_qp(np.random.default_rng(seed), k, k, asymmetry=1e-13)

    def test_a_checked_q_keeps_its_bits(self):
        # a stored Q is exactly symmetric, so symmetrising it again changes no bit
        rng = np.random.default_rng(21)
        base = self.base(k=12)
        for _ in range(10):
            c = rng.normal(size=12) * rng.uniform(0.1, 5.0)
            upper = rng.uniform(0.0, 3.0, size=12)
            upper[rng.random(12) < 0.2] = 0.0
            problem = BoxQP(base.Q, c, upper)
            assert_array_equal(problem.Q, base.Q)
            assert_array_equal(problem._diagonals, base._diagonals)
            assert_array_equal(problem.c, c)
            assert_array_equal(problem.upper, upper)

    def test_copies_solve_alone_after_the_original_is_gone(self):
        # pickle and deepcopy rebuild a problem without __post_init__, so the
        # solver must read the copy's own arrays, never addresses of the original
        rng = np.random.default_rng(22)
        originals = [self.base(k=12), singular_valley()]
        originals.append(BoxQP(originals[0].Q, rng.normal(size=12), np.ones(12)))
        expected = [solution_bits(problem, 10_000) for problem in originals]
        pickled = [pickle.loads(pickle.dumps(problem)) for problem in originals]
        copied = [copy.deepcopy(problem) for problem in originals]
        del originals
        gc.collect()
        for copies in (pickled, copied):
            assert [solution_bits(problem, 10_000) for problem in copies] == expected

    @pytest.mark.parametrize("part", ["c", "upper"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_bounds(self, part, value):
        base = self.base()
        parts = {"c": np.ones(5), "upper": np.ones(5)}
        parts[part][3] = value
        with pytest.raises(NonFiniteError, match="finite"):
            BoxQP(base.Q, parts["c"], parts["upper"])

    @pytest.mark.parametrize("c, upper, message", [
        (np.ones(5), np.array([1.0, 1.0, -1e-300, 1.0, 1.0]), "nonnegative"),
        (np.ones(4), np.ones(5), "match"),
        (np.ones(5), np.ones(6), "match"),
        (np.ones((5, 1)), np.ones(5), "match"),
        (np.ones(5), np.ones((1, 5)), "match"),
    ], ids=["negative-upper", "short-c", "long-upper", "column-c", "row-upper"])
    def test_rejects_bad_bounds(self, c, upper, message):
        with pytest.raises(ValueError, match=message):
            BoxQP(self.base().Q, c, upper)


def test_grid_oracle_stays_in_box():
    # a 0.001-step arange overshoots a bound that is not on the grid
    rng = np.random.default_rng(7)
    for _ in range(30):
        Q, c, upper = random_box_qp(rng)
        z = grid_box_qp_oracle(Q, c, upper)
        assert np.all(z >= 0.0) and np.all(z <= upper)


def test_kkt_residual_zero_at_solution():
    rng = np.random.default_rng(4)
    Q, c, upper = random_box_qp(rng)
    prob = BoxQP(Q, c, upper)
    sol = solve_box_qp(prob, tol=1e-10)
    assert kkt_residual(prob, sol.z) <= 1e-10


def spd_solve(M, ridge, rhs):
    """(M + ridge I) x = rhs the way the models solve it: spd_factor, then cho_solve."""
    return qp.cho_solve(spd_factor(M, ridge), rhs)


class TestSpdSolve:
    def test_identity(self):
        x = spd_solve(np.eye(3), 0.0, np.array([1.0, 0.0, 0.0]))
        assert_allclose(x, [1.0, 0.0, 0.0])

    def test_pure_ridge_scalar(self):
        x = spd_solve(np.zeros((1, 1)), 2.0, np.array([4.0]))
        assert_allclose(x, [2.0])

    def test_matches_independent_solver(self):
        rng = np.random.default_rng(5)
        G = rng.normal(size=(6, 6))
        M = G.T @ G
        rhs = rng.normal(size=6)
        x = spd_solve(M, 1e-3, rhs)
        expected = np.linalg.solve(M + 1e-3 * np.eye(6), rhs)
        assert_allclose(x, expected, atol=1e-9)

    def test_cho_solve_is_scipys_bit_for_bit(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 7, 40):
            G = rng.normal(size=(n, n))
            factor = spd_factor(G.T @ G, 1e-3)
            H = rng.normal(size=(5, n))
            for rhs in (rng.normal(size=n), H.T, np.zeros((n, 0))):
                expected = cho_solve(factor, rhs, check_finite=False)
                assert qp.cho_solve(factor, rhs).tobytes() == expected.tobytes()

    def test_indefinite_matrix_rejected(self):
        M = np.diag([1.0, -5.0])
        with pytest.raises(FactorizationError, match="ridge"):
            spd_factor(M, 0.0)


def import_in_subprocess(cache, path=None):
    """Start `import ifutsvm` from this checkout with XDG_CACHE_HOME=cache and,
    if given, PATH=path."""
    src = str(Path(ifutsvm.__file__).resolve().parents[1])
    env = {**os.environ, "XDG_CACHE_HOME": str(cache), "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.Popen([sys.executable, "-c", "import ifutsvm"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finished(process):
    """(returncode, stderr) of a started import."""
    _, err = process.communicate(timeout=120)
    return process.returncode, err


class TestSolveLoopBuild:
    """The C loop is compiled once into the per-user cache; a warm import
    runs no compiler, and a cold one without a compiler says what it needs."""

    def test_a_warm_import_runs_no_compiler(self, tmp_path):
        no_tools = tmp_path / "bin"
        no_tools.mkdir()
        for path in (None, no_tools):
            code, err = finished(import_in_subprocess(tmp_path, path))
            assert code == 0, err

    def test_a_cold_import_without_a_compiler_names_the_command_and_cache(self, tmp_path):
        no_tools = tmp_path / "bin"
        no_tools.mkdir()
        code, err = finished(import_in_subprocess(tmp_path, no_tools))
        assert code != 0
        assert "ImportError" in err
        assert " ".join(qp._COMPILE) in err and str(tmp_path / "ifutsvm") in err
        assert list((tmp_path / "ifutsvm").iterdir()) == []

    def test_concurrent_cold_imports_leave_one_library(self, tmp_path):
        imports = [import_in_subprocess(tmp_path) for _ in range(2)]
        for code, err in map(finished, imports):
            assert code == 0, err
        (library,) = (tmp_path / "ifutsvm").iterdir()
        assert library.name.startswith("_solve-") and library.suffix == ".so"
