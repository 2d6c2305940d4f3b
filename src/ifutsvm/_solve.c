/* The box-QP solver behind ifutsvm.qp: one C call per solve, and one per plane of a
 * twin-SVM fit at a lattice point.
 *
 * solve_box_qp maximizes c'z - z'Qz/2 over 0 <= z <= upper, Q symmetric (row-major,
 * k x k), by cyclic coordinate ascent finished on the active face:
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
 *            potrs), or by least squares (gelsd, as np.linalg.lstsq calls it)
 *            when potrf rejects it; the step is clipped to the box as np.clip
 *            does and kept only if the objective rises, and a kept step is
 *            checked at once
 *
 * solve_plane is the solve stage of one plane (ifutsvm.models) at one lattice
 * point.  The plane's Hessian context, built once per dual Hessian, holds the
 * checked Q and its diagonals, the Cholesky factor L of M'M + ridge I, the
 * constraint rows H (class rows first), the class weights and the sign; the
 * point brings its penalty, cu and epsilon.  The call builds the linear term (1
 * on class rows, epsilon - 1 on universum rows) and the box (penalty w_i on
 * class rows, cu on universum rows) of the dual's k rows, rejects bounds that
 * are not finite or are negative, solves, and recovers (w; b) = sign potrs(L,
 * H_k' z).  When the dual holds only the class rows (a screened plane), it also
 * returns the largest KKT residual of the universum multipliers held at zero,
 * max_j clip(lin_j - sign H_j (w; b), 0, cu); plane_screen gives that maximum
 * for another cu and epsilon.
 *
 * The calls return at convergence, after max_iter sweeps (SOLVE_LIMIT), when
 * memory runs out and when a plane's bounds are rejected.  No solve state lives
 * in statics, so solves may run on several threads at once.
 *
 * Every floating-point operation is the one the numpy reference does, in its
 * order: matrix-vector products and dots are numpy's own cblas_dgemv and
 * cblas_ddot, called as numpy's matmul calls them; the least squares are numpy's
 * own dgelsd, called as np.linalg.lstsq calls it; the factor and its solves are
 * scipy's LAPACK; and the file is built without FMA contraction and without
 * -ffast-math.  The entry points are bound once, by solve_bind.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { SOLVE_CONVERGED, SOLVE_LIMIT, SOLVE_NO_MEMORY, PLANE_NON_FINITE, PLANE_NEGATIVE };
/* the slots of state, which the caller zeroes */
enum { SWEEPS, CHECKS, REFINEMENTS, ACCEPTED, LEAST_SQUARES };
/* the slots of values: the first two filled at convergence and at the sweep limit */
enum { OBJECTIVE, RESIDUAL, UNIVERSUM };
/* how a refinement ends */
enum { REJECTED, KEPT, FAILED };
enum { CBLAS_ROW_MAJOR = 101, CBLAS_COL_MAJOR = 102, CBLAS_TRANS = 112 };

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
typedef void dgelsd64(const int64_t *, const int64_t *, const int64_t *, double *,
                      const int64_t *, double *, const int64_t *, double *, const double *,
                      int64_t *, double *, const int64_t *, int64_t *, int64_t *);
typedef void dgelsd32(const int *, const int *, const int *, double *, const int *, double *,
                      const int *, double *, const double *, int *, double *, const int *,
                      int *, int *);

static int blas_ilp64, lapack_ilp64;
static entry *blas_dgemv, *blas_ddot, *lapack_dgelsd, *lapack_dpotrf, *lapack_dpotrs;

/* numpy's cblas_dgemv, cblas_ddot and dgelsd (64-bit integers when ilp64) and
 * scipy's dpotrf and dpotrs */
void solve_bind(int blas64, entry *dgemv, entry *ddot, int lapack64, entry *gelsd,
                entry *potrf, entry *potrs)
{
    blas_ilp64 = blas64;
    blas_dgemv = dgemv;
    blas_ddot = ddot;
    lapack_ilp64 = lapack64;
    lapack_dgelsd = gelsd;
    lapack_dpotrf = potrf;
    lapack_dpotrs = potrs;
}

struct problem {
    int64_t k;
    const double *Q, *diag, *floored, *c, *upper;
};

/* A plane's Hessian context, mirrored by qp._PlaneContext */
struct plane {
    int64_t k;        /* the dual's rows: the class rows of a screened plane, else all */
    int64_t rows;     /* H's rows: the class rows, then the universum rows */
    int64_t classes;
    int64_t columns;  /* H's columns, the order of L */
    const double *Q, *diagonals, *L, *H, *weights;
    double sign;
};

struct solve {
    double *q;                /* the running Q z */
    double *cand, *q_cand;    /* a refinement's candidate and its Q cand */
    int64_t worst;            /* the coordinate the probe reads */
    unsigned char *pattern;   /* the last sweep's bound pattern: 0, 1 free, 2 top */
    unsigned char *next;      /* this sweep's */
    unsigned char *seen;      /* the patterns refined in this solve, k bytes each */
    int64_t n_seen, cap_seen;
    int64_t *free_at;         /* a refinement's free coordinates */
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

/* y = A'x for a row-major m x n A, as numpy's matmul forms A.T @ x: zeros for
 * no row, 0 + a x for one, a dot for one column, else row-major cblas_dgemv with
 * lda = n */
static void matvec_t(int64_t m, int64_t n, const double *A, const double *x, double *y)
{
    int64_t j;
    if (m <= 1)
        for (j = 0; j < n; j++) {
            y[j] = 0.0;
            if (m == 1)
                y[j] += A[j] * x[0];
        }
    else if (n == 1)
        y[0] = dot(m, A, x);
    else if (blas_ilp64)
        ((dgemv64 *)blas_dgemv)(CBLAS_ROW_MAJOR, CBLAS_TRANS, m, n, 1.0, A, n, x, 1, 0.0, y, 1);
    else
        ((dgemv32 *)blas_dgemv)(CBLAS_ROW_MAJOR, CBLAS_TRANS, (int)m, (int)n, 1.0, A, (int)n,
                                x, 1, 0.0, y, 1);
}

/* The min-norm solution of the square system A x = b as np.linalg.lstsq(A, b,
 * rcond=None) finds it: dgelsd with rcond = eps n and the workspace its query
 * asks for.  A (column-major) is destroyed and x replaces b.  0 on success, -1
 * when dgelsd fails, -2 when memory runs out. */
#define LEAST_SQUARES(name, integer, gelsd)                                                  \
    static int name(int64_t order, double *A, double *b)                                    \
    {                                                                                        \
        integer n = (integer)order, one = 1, rank, info, lwork = -1, iwork_query;            \
        double rcond = DBL_EPSILON * (double)order, work_query;                              \
        double *s = malloc((size_t)order * sizeof(double));                                  \
        if (!s)                                                                              \
            return -2;                                                                       \
        ((gelsd *)lapack_dgelsd)(&n, &n, &one, A, &n, b, &n, s, &rcond, &rank, &work_query,  \
                                 &lwork, &iwork_query, &info);                               \
        lwork = (integer)work_query;                                                         \
        double *work = info != 0 ? NULL : malloc((size_t)work_query * sizeof(double)        \
                                                 + (size_t)iwork_query * sizeof(integer));   \
        if (work)                                                                            \
            ((gelsd *)lapack_dgelsd)(&n, &n, &one, A, &n, b, &n, s, &rcond, &rank, work,     \
                                     &lwork, (integer *)(work + (size_t)work_query), &info); \
        int status = info != 0 ? -1 : work ? 0 : -2;                                         \
        free(work);                                                                          \
        free(s);                                                                             \
        return status;                                                                       \
    }
LEAST_SQUARES(least_squares64, int64_t, dgelsd64)
LEAST_SQUARES(least_squares32, int, dgelsd32)

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

/* The step clipped into the free coordinates of a copy of z, kept if the
 * objective rises */
static int keep_step(struct solve *s, const struct problem *p, double *z, int64_t f,
                     const double *step, int64_t *state)
{
    int64_t a, k = p->k;
    memcpy(s->cand, z, (size_t)k * sizeof(double));
    for (a = 0; a < f; a++) {
        /* np.clip: min(max(t, 0), upper), a NaN kept */
        double t = step[a], u = p->upper[s->free_at[a]];
        if (!isnan(t) && !(t > 0.0))
            t = 0.0;
        if (!isnan(t) && !(t < u))
            t = u;
        s->cand[s->free_at[a]] = t;
    }
    matvec(k, k, p->Q, s->cand, s->q_cand);
    if (!(objective(p, s->cand, s->q_cand) > objective(p, z, s->q)))
        return REJECTED;
    memcpy(z, s->cand, (size_t)k * sizeof(double));
    memcpy(s->q, s->q_cand, (size_t)k * sizeof(double));
    state[ACCEPTED]++;
    return KEPT;
}

/* The Newton step on the free coordinates of `pattern`; s->q must be Q z.
 * rhs = c_F - Q_F. z_B, the rows taken whole and z with its free coordinates
 * zeroed; the block Q_FF is factored by potrf, or solved by least squares when
 * potrf rejects it, and a step least squares cannot give is rejected. */
static int refine(struct solve *s, const struct problem *p, double *z, int64_t *state)
{
    int64_t a, b, i, f = 0, k = p->k;
    for (i = 0; i < k; i++)
        if (s->pattern[i] == 1)
            s->free_at[f++] = i;
    if (f == 0)
        return REJECTED;
    double *work = malloc((size_t)(f * k + f * f + f) * sizeof(double));
    if (!work)
        return FAILED;
    double *rows = work, *factor = work; /* the factor overwrites the rows */
    double *block = rows + f * k, *rhs = block + f * f;
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
    int n = (int)f, one = 1, info, outcome = REJECTED;
    ((dpotrf *)lapack_dpotrf)("L", &n, factor, &n, &info);
    if (info == 0) {
        ((dpotrs *)lapack_dpotrs)("L", &n, &one, factor, &n, rhs, &n, &info);
    } else {
        state[LEAST_SQUARES]++;
        info = (lapack_ilp64 ? least_squares64 : least_squares32)(f, block, rhs);
    }
    if (info == 0)
        outcome = keep_step(s, p, z, f, rhs, state);
    else if (info == -2)
        outcome = FAILED;
    free(work);
    return outcome;
}

/* The solve from z = 0: sweeps, checks and refinements */
static int run(struct solve *s, const struct problem *p, double tol, int64_t max_iter,
               double *z, double *values, int64_t *state)
{
    int64_t i, k = p->k;
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
        case FAILED:
            return SOLVE_NO_MEMORY;
        case KEPT:
            if (check(s, p, tol, z, values, state))
                return SOLVE_CONVERGED;
        }
    }
}

/* One allocation holds the solve's state and its k-sized buffers, z zero */
static int solve(const struct problem *p, double tol, int64_t max_iter, double *z,
                 double *values, int64_t *state)
{
    int64_t k = p->k;
    if (k == 0) {
        values[OBJECTIVE] = values[RESIDUAL] = 0.0;
        return SOLVE_CONVERGED;
    }
    struct solve *s = calloc(1, sizeof *s + (size_t)k * (3 * sizeof(double) + sizeof(int64_t) + 2));
    if (!s)
        return SOLVE_NO_MEMORY;
    s->q = (double *)(s + 1); /* zero, as z is */
    s->cand = s->q + k;
    s->q_cand = s->cand + k;
    s->free_at = (int64_t *)(s->q_cand + k);
    s->pattern = (unsigned char *)(s->free_at + k);
    s->next = s->pattern + k;
    memset(s->pattern, 3, (size_t)k); /* 3 matches no pattern */
    int status = run(s, p, tol, max_iter, z, values, state);
    free(s->seen);
    free(s);
    return status;
}

/* Solves from z = 0, which the caller zeroes, as does state.  diagonals holds
 * Q's diagonal and then its floored diagonal, max(Q_ii, DIAG_FLOOR). */
int solve_box_qp(int64_t k, const double *Q, const double *diagonals, const double *c,
                 const double *upper, double tol, int64_t max_iter, double *z,
                 double *values, int64_t *state)
{
    struct problem p = {k, Q, diagonals, diagonals + k, c, upper};
    return solve(&p, tol, max_iter, z, values, state);
}

/* max_j clip(lin_j - sign H_j coef, 0, cu) over the universum rows a screened
 * plane leaves out, as np.minimum(np.maximum(...), cu).max(initial=0.0) forms
 * it, NaN kept; into *top.  0, or SOLVE_NO_MEMORY. */
int plane_screen(const struct plane *pl, const double *coef, double cu, double epsilon,
                 double *top)
{
    int64_t j, u = pl->rows - pl->k;
    *top = 0.0;
    if (u == 0)
        return SOLVE_CONVERGED;
    double *hz = malloc((size_t)u * sizeof(double));
    if (!hz)
        return SOLVE_NO_MEMORY;
    matvec(u, pl->columns, pl->H + pl->k * pl->columns, coef, hz);
    for (j = 0; j < u; j++) {
        double t = (epsilon - 1.0) - pl->sign * hz[j];
        if (!(t >= 0.0) && !isnan(t))
            t = 0.0;
        if (!(t <= cu) && !isnan(t))
            t = cu;
        if (isnan(t) || (!isnan(*top) && t > *top))
            *top = t;
    }
    free(hz);
    return SOLVE_CONVERGED;
}

/* The solve stage of one plane at (penalty, cu, epsilon): out gets z over all
 * of H's rows (zero past the dual's k) and then (w; b); values gets the
 * objective, the residual and, for a screened plane, its universum maximum.
 * The caller zeroes out and state. */
int solve_plane(const struct plane *pl, double penalty, double cu, double epsilon, double tol,
                int64_t max_iter, double *out, double *values, int64_t *state)
{
    int64_t i, k = pl->k;
    double *bounds = malloc((size_t)(2 * k + 1) * sizeof(double));
    if (!bounds)
        return SOLVE_NO_MEMORY;
    double *c = bounds, *upper = bounds + k;
    int non_finite = 0, negative = 0;
    for (i = 0; i < k; i++) {
        c[i] = i < pl->classes ? 1.0 : epsilon - 1.0;
        upper[i] = i < pl->classes ? penalty * pl->weights[i] : cu;
        non_finite |= !isfinite(c[i]) || !isfinite(upper[i]);
        negative |= upper[i] < 0;
    }
    int status = non_finite ? PLANE_NON_FINITE : negative ? PLANE_NEGATIVE : SOLVE_CONVERGED;
    if (status == SOLVE_CONVERGED) {
        struct problem p = {k, pl->Q, pl->diagonals, pl->diagonals + k, c, upper};
        status = solve(&p, tol, max_iter, out, values, state);
    }
    free(bounds);
    if (status != SOLVE_CONVERGED)
        return status;
    double *coef = out + pl->rows;
    matvec_t(k, pl->columns, pl->H, out, coef);
    int n = (int)pl->columns, one = 1, info;
    ((dpotrs *)lapack_dpotrs)("L", &n, &one, pl->L, &n, coef, &n, &info);
    for (i = 0; i < pl->columns; i++)
        coef[i] = pl->sign * coef[i];
    return plane_screen(pl, coef, cu, epsilon, values + UNIVERSUM);
}
