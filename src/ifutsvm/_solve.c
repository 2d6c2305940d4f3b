/* The box-QP solver behind ifutsvm.qp.solve_box_qp: one call per solve.
 *
 * Maximizes c'z - z'Qz/2 over 0 <= z <= upper, Q symmetric (row-major, k x k),
 * by cyclic coordinate ascent finished on the active face:
 *   sweep    each coordinate step is (c_i - q_i + d_i z_i) / dn_i, clipped, and
 *            each gradient update q_j = q_j + Q_ij * delta rounds twice
 *   probe    after each sweep, the KKT residual of one coordinate, the argmax of
 *            the last full residual vector; while it exceeds tol, so does the
 *            maximum, and the next sweep starts
 *   check    once the probe passes, the full residual vector (its argmax is the
 *            next coordinate probed); a passing maximum is confirmed on a fresh
 *            q = Q z
 *   refine   a sweep that fails the test classifies each coordinate as at 0, at
 *            its upper bound or free (within 1e-10 (1 + upper_i) of a bound);
 *            when that pattern equals the previous sweep's and this solve has
 *            not refined it, the free block is solved by Cholesky (potrf,
 *            potrs), the step is clipped to the box as np.clip does and kept
 *            only if the objective rises, and a kept step is checked at once
 *
 * The call returns at convergence (SOLVE_CONVERGED), after max_iter sweeps
 * (SOLVE_LIMIT), and when potrf rejects a free block (SOLVE_LEAST_SQUARES).
 * In the last case the block (state[FREE] rows, row-major) and its right-hand
 * side follow each other at state[BLOCK]; the caller solves them by least
 * squares and calls again with the step, or with NULL to reject it, and the
 * solve goes on where it stopped.  Between those two calls the solve's state
 * lives in a heap context at state[CONTEXT], which solve_release frees when
 * the caller does not call again; every other return frees it.  No solve
 * state lives in statics, so solves may run on several threads at once.
 *
 * Every floating-point operation is the one the numpy reference does, in its
 * order: Q @ z and c @ z are numpy's own cblas_dgemv and cblas_ddot, called as
 * numpy's matmul calls them; the factor and its solve are scipy's LAPACK; and
 * the file is built without FMA contraction and without -ffast-math.  The
 * entry points are bound once, by solve_bind.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { SOLVE_CONVERGED, SOLVE_LIMIT, SOLVE_LEAST_SQUARES, SOLVE_NO_MEMORY };
/* the slots of state, which the caller zeroes for a new solve */
enum { SWEEPS, CHECKS, REFINEMENTS, ACCEPTED, LEAST_SQUARES, CONTEXT, FREE, BLOCK };
/* the slots of values, filled at convergence and at the sweep limit */
enum { OBJECTIVE, RESIDUAL };
/* how a refinement ends */
enum { REJECTED, KEPT, SUSPENDED, FAILED };
enum { CBLAS_COL_MAJOR = 102, CBLAS_TRANS = 112 };

/* any entry point; each is cast back to its own type to be called */
typedef void entry(void);
typedef void dgemv64(int, int, int64_t, int64_t, double, const double *, int64_t,
                     const double *, int64_t, double, double *, int64_t);
typedef double ddot64(int64_t, const double *, int64_t, const double *, int64_t);
typedef void dgemv32(int, int, int, int, double, const double *, int, const double *, int,
                     double, double *, int);
typedef double ddot32(int, const double *, int, const double *, int);
typedef void dpotrf(const char *, const int *, double *, const int *, int *);
typedef void dpotrs(const char *, const int *, const int *, const double *, const int *,
                    double *, const int *, int *);

static int blas_ilp64;
static entry *blas_dgemv, *blas_ddot, *lapack_dpotrf, *lapack_dpotrs;

/* numpy's cblas_dgemv and cblas_ddot (64-bit integers when ilp64) and scipy's
 * dpotrf and dpotrs */
void solve_bind(int ilp64, entry *dgemv, entry *ddot, entry *potrf, entry *potrs)
{
    blas_ilp64 = ilp64;
    blas_dgemv = dgemv;
    blas_ddot = ddot;
    lapack_dpotrf = potrf;
    lapack_dpotrs = potrs;
}

struct problem {
    int64_t k;
    const double *Q, *diag, *floored, *c, *upper;
};

struct solve {
    double *q;                /* the running Q z */
    double *cand, *q_cand;    /* a refinement's candidate and its Q cand */
    int64_t worst;            /* the coordinate the probe reads */
    unsigned char *pattern;   /* the last sweep's bound pattern: 0, 1 free, 2 top */
    unsigned char *next;      /* this sweep's */
    unsigned char *seen;      /* the patterns refined in this solve, k bytes each */
    int64_t n_seen, cap_seen;
    int64_t *free_at, n_free; /* a refinement's free coordinates */
    double *work;             /* a refinement's rows, factor, block, rhs and step */
};

/* x'y as numpy's DOUBLE_dot forms it: 0. plus cblas_ddot */
static double dot(int64_t n, const double *x, const double *y)
{
    double sum = 0.;
    if (blas_ilp64)
        sum += ((ddot64 *)blas_ddot)(n, x, 1, y, 1);
    else
        sum += ((ddot32 *)blas_ddot)((int)n, x, 1, y, 1);
    return sum;
}

/* y = A x for a row-major m x n A, as numpy's matmul forms it: a dot for one
 * row, else cblas_dgemv on the column-major transpose with lda = n */
static void matvec(int64_t m, int64_t n, const double *A, const double *x, double *y)
{
    if (m == 1)
        y[0] = dot(n, A, x);
    else if (blas_ilp64)
        ((dgemv64 *)blas_dgemv)(CBLAS_COL_MAJOR, CBLAS_TRANS, n, m, 1.0, A, n, x, 1, 0.0, y, 1);
    else
        ((dgemv32 *)blas_dgemv)(CBLAS_COL_MAJOR, CBLAS_TRANS, (int)n, (int)m, 1.0, A, (int)n,
                                x, 1, 0.0, y, 1);
}

/* c'z - z'q/2, as float(c @ z - 0.5 * (z @ q)) */
static double objective(const struct problem *p, const double *z, const double *q)
{
    double cz = dot(p->k, p->c, z);
    return cz - 0.5 * dot(p->k, z, q);
}

/* max_i |min(max(z_i - (q_i - c_i), 0), upper_i) - z_i| with numpy's NaN
 * propagation; its first argmax, a NaN first as in np.argmax, goes to *worst */
static double residual(const struct problem *p, const double *z, const double *q,
                       int64_t *worst)
{
    double top = 0.0;
    int64_t i, at = 0;
    for (i = 0; i < p->k; i++) {
        double t = z[i] - (q[i] - p->c[i]);
        if (!(t >= 0.0) && !isnan(t))
            t = 0.0;
        if (!(t <= p->upper[i]) && !isnan(t))
            t = p->upper[i];
        t = fabs(t - z[i]);
        if (i == 0 || (!isnan(top) && !(t <= top))) {
            top = t;
            at = i;
        }
    }
    if (worst)
        *worst = at;
    return top;
}

/* One cyclic pass over the coordinates, z and q = Q z updated in place */
static void sweep(const struct problem *p, double *z, double *q)
{
    int64_t i, j, k = p->k;
    for (i = 0; i < k; i++) {
        double zi_old = z[i];
        double zi = (p->c[i] - q[i] + p->diag[i] * zi_old) / p->floored[i];
        if (zi < 0.0)
            zi = 0.0;
        else if (zi > p->upper[i])
            zi = p->upper[i];
        double delta = zi - zi_old;
        if (delta != 0.0) {
            const double *row = p->Q + i * k;
            z[i] = zi;
            for (j = 0; j < k; j++)
                q[j] = q[j] + row[j] * delta;
        }
    }
}

/* The probe: the residual of coordinate w alone, with the comparisons of the
 * full vector, so that a NaN passes on to the full check */
static int probe_passes(const struct problem *p, const double *z, const double *q,
                        int64_t w, double tol)
{
    double t = z[w] - (q[w] - p->c[w]);
    if (0.0 > t)
        t = 0.0;
    if (p->upper[w] < t)
        t = p->upper[w];
    return !(fabs(t - z[w]) > tol);
}

/* The full test of z: 1 when it passes, with the objective and the residual
 * on a fresh q = Q z in values */
static int check(struct solve *s, const struct problem *p, double tol, const double *z,
                 double *values, int64_t *state)
{
    state[CHECKS]++;
    if (!(residual(p, z, s->q, &s->worst) <= tol))
        return 0;
    matvec(p->k, p->k, p->Q, z, s->q);
    state[CHECKS]++;
    double r = residual(p, z, s->q, NULL);
    if (!(r <= tol))
        return 0;
    values[OBJECTIVE] = objective(p, z, s->q);
    values[RESIDUAL] = r;
    return 1;
}

/* Whether this solve refined `pattern` before; if not, it is remembered.
 * -1 when out of memory. */
static int seen_before(struct solve *s, int64_t k)
{
    int64_t n;
    for (n = 0; n < s->n_seen; n++)
        if (memcmp(s->seen + n * k, s->pattern, (size_t)k) == 0)
            return 1;
    if (s->n_seen == s->cap_seen) {
        int64_t cap = s->cap_seen ? 2 * s->cap_seen : 4;
        unsigned char *grown = realloc(s->seen, (size_t)(cap * k));
        if (!grown)
            return -1;
        s->seen = grown;
        s->cap_seen = cap;
    }
    memcpy(s->seen + s->n_seen++ * k, s->pattern, (size_t)k);
    return 0;
}

/* The end of a refinement: the step clipped into the free coordinates of a
 * copy of z, kept if the objective rises; a NULL step is rejected */
static int keep_step(struct solve *s, const struct problem *p, double *z, const double *step,
                     int64_t *state)
{
    int64_t a, k = p->k;
    int outcome = REJECTED;
    if (step) {
        memcpy(s->cand, z, (size_t)k * sizeof(double));
        for (a = 0; a < s->n_free; a++) {
            /* np.clip: min(max(t, 0), upper), a NaN kept */
            double t = step[a], u = p->upper[s->free_at[a]];
            if (!isnan(t) && !(t > 0.0))
                t = 0.0;
            if (!isnan(t) && !(t < u))
                t = u;
            s->cand[s->free_at[a]] = t;
        }
        matvec(k, k, p->Q, s->cand, s->q_cand);
        if (objective(p, s->cand, s->q_cand) > objective(p, z, s->q)) {
            memcpy(z, s->cand, (size_t)k * sizeof(double));
            memcpy(s->q, s->q_cand, (size_t)k * sizeof(double));
            state[ACCEPTED]++;
            outcome = KEPT;
        }
    }
    free(s->work);
    s->work = NULL;
    return outcome;
}

/* The Newton step on the free coordinates of `pattern`; s->q must be Q z.
 * rhs = c_F - Q_F. z_B, the rows taken whole and z with its free coordinates
 * zeroed, and the block Q_FF is factored by potrf; SUSPENDED leaves the block
 * and rhs for least squares. */
static int refine(struct solve *s, const struct problem *p, double *z, int64_t *state)
{
    int64_t a, b, i, f = 0, k = p->k;
    for (i = 0; i < k; i++)
        if (s->pattern[i] == 1)
            s->free_at[f++] = i;
    s->n_free = f;
    if (f == 0)
        return REJECTED;
    s->work = malloc((size_t)(f * k + f * f + 2 * f) * sizeof(double));
    if (!s->work)
        return FAILED;
    double *rows = s->work, *factor = s->work; /* the factor overwrites the rows */
    double *block = rows + f * k, *rhs = block + f * f, *step = rhs + f;
    for (a = 0; a < f; a++)
        memcpy(rows + a * k, p->Q + s->free_at[a] * k, (size_t)k * sizeof(double));
    memcpy(s->cand, z, (size_t)k * sizeof(double));
    for (a = 0; a < f; a++)
        s->cand[s->free_at[a]] = 0.0;
    matvec(f, k, rows, s->cand, rhs);
    for (a = 0; a < f; a++) {
        rhs[a] = p->c[s->free_at[a]] - rhs[a];
        for (b = 0; b < f; b++)
            block[a * f + b] = rows[a * k + s->free_at[b]];
    }
    /* LAPACK reads the row-major block as its transpose, the same symmetric matrix */
    memcpy(factor, block, (size_t)(f * f) * sizeof(double));
    int n = (int)f, one = 1, info;
    ((dpotrf *)lapack_dpotrf)("L", &n, factor, &n, &info);
    if (info != 0) {
        state[LEAST_SQUARES]++;
        state[FREE] = f;
        state[BLOCK] = (int64_t)(intptr_t)block;
        return SUSPENDED;
    }
    memcpy(step, rhs, (size_t)f * sizeof(double));
    ((dpotrs *)lapack_dpotrs)("L", &n, &one, factor, &n, step, &n, &info);
    return keep_step(s, p, z, step, state);
}

/* The solve from its last stop to its next: sweeps, checks and refinements */
static int run(struct solve *s, const struct problem *p, double tol, int64_t max_iter,
               double *z, double *values, int64_t *state, const double *step)
{
    int64_t i, k = p->k;
    if (s->work && keep_step(s, p, z, step, state) == KEPT && check(s, p, tol, z, values, state))
        return SOLVE_CONVERGED;
    for (;;) {
        if (state[SWEEPS] >= max_iter) {
            matvec(k, k, p->Q, z, s->q);
            state[CHECKS]++;
            values[RESIDUAL] = residual(p, z, s->q, NULL);
            values[OBJECTIVE] = objective(p, z, s->q);
            return SOLVE_LIMIT;
        }
        state[SWEEPS]++;
        sweep(p, z, s->q);
        if (probe_passes(p, z, s->q, s->worst, tol) && check(s, p, tol, z, values, state))
            return SOLVE_CONVERGED;
        for (i = 0; i < k; i++) {
            double margin = 1e-10 * (1.0 + p->upper[i]);
            s->next[i] = z[i] <= margin ? 0 : (z[i] >= p->upper[i] - margin ? 2 : 1);
        }
        if (memcmp(s->next, s->pattern, (size_t)k) != 0) {
            memcpy(s->pattern, s->next, (size_t)k);
            continue;
        }
        int seen = seen_before(s, k);
        if (seen < 0)
            return SOLVE_NO_MEMORY;
        if (seen)
            continue;
        state[REFINEMENTS]++;
        matvec(k, k, p->Q, z, s->q); /* refresh the incrementally tracked gradient */
        switch (refine(s, p, z, state)) {
        case SUSPENDED:
            return SOLVE_LEAST_SQUARES;
        case FAILED:
            return SOLVE_NO_MEMORY;
        case KEPT:
            if (check(s, p, tol, z, values, state))
                return SOLVE_CONVERGED;
        }
    }
}

static void close_solve(struct solve *s)
{
    free(s->seen);
    free(s->work);
    free(s);
}

/* One allocation holds the solve's state and its k-sized buffers */
static struct solve *open_solve(int64_t k)
{
    struct solve *s = calloc(1, sizeof *s + (size_t)k * (3 * sizeof(double) + sizeof(int64_t) + 2));
    if (!s)
        return NULL;
    s->q = (double *)(s + 1); /* zero, as z is */
    s->cand = s->q + k;
    s->q_cand = s->cand + k;
    s->free_at = (int64_t *)(s->q_cand + k);
    s->pattern = (unsigned char *)(s->free_at + k);
    s->next = s->pattern + k;
    memset(s->pattern, 3, (size_t)k); /* 3 matches no pattern */
    return s;
}

/* Solves from z = 0 (state zeroed) or resumes a solve stopped for least
 * squares (state[CONTEXT] set) with its step, NULL to reject it.  diagonals
 * holds Q's diagonal and then its floored diagonal, max(Q_ii, DIAG_FLOOR). */
int solve_box_qp(int64_t k, const double *Q, const double *diagonals, const double *c,
                 const double *upper, double tol, int64_t max_iter, double *z,
                 double *values, int64_t *state, const double *step)
{
    struct problem p = {k, Q, diagonals, diagonals + k, c, upper};
    struct solve *s = (struct solve *)(intptr_t)state[CONTEXT];
    if (!s && !(s = open_solve(k)))
        return SOLVE_NO_MEMORY;
    state[CONTEXT] = 0;
    int status = run(s, &p, tol, max_iter, z, values, state, step);
    if (status == SOLVE_LEAST_SQUARES)
        state[CONTEXT] = (int64_t)(intptr_t)s;
    else
        close_solve(s);
    return status;
}

/* Frees the context of a solve stopped for least squares that is not resumed */
void solve_release(int64_t *state)
{
    if (state[CONTEXT])
        close_solve((struct solve *)(intptr_t)state[CONTEXT]);
    state[CONTEXT] = 0;
}
