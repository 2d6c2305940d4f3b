/* The cyclic coordinate-ascent loop of ifutsvm.qp.solve_box_qp.
 *
 * Maximizes c'z - z'Qz/2 over 0 <= z <= upper, Q symmetric (row-major, k x k).
 * Every operation is the one the scalar reference loop does, in its order:
 * each coordinate step is (c_i - q_i + d_i z_i) / dn_i, clipped, and each
 * gradient update q_j = q_j + Q_ij * delta rounds twice.  Built without FMA
 * contraction and without -ffast-math, so the bits equal the reference's.
 *
 * The loop returns to its caller only when the caller has work to do:
 *   SOLVE_PROBE   the sweep's one-coordinate KKT probe at state[WORST] passed;
 *                 the caller forms the full residual and may certify z
 *   SOLVE_REPEAT  the sweep left the bound pattern unchanged and the loop does
 *                 not know that pattern to be refined; the caller decides
 *   SOLVE_LIMIT   max_iter sweeps were run
 * state carries the loop across calls, in and out:
 *   state[SWEEPS]   sweeps run so far
 *   state[WORST]    the coordinate the probe reads
 *   state[REFINED]  1 when the pattern in `pattern` is known to be refined
 *   state[CLASSIFY] 1 to resume at the pattern test of the last sweep (after
 *                   a probe that the full residual did not confirm); cleared
 * pattern holds the last sweep's bound pattern, one byte per coordinate:
 * 0 at zero (z_i <= margin_i), 2 at the top (z_i >= below_top_i), 1 free.
 * A byte of 3 matches no pattern, so a fresh solve starts with pattern all 3.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

enum { SOLVE_PROBE = 0, SOLVE_REPEAT = 1, SOLVE_LIMIT = 2 };
enum { SWEEPS = 0, WORST = 1, REFINED = 2, CLASSIFY = 3 };

int solve_loop(int64_t k, const double *Q, const double *c, const double *upper,
               const double *diag, const double *floored, const double *margin,
               const double *below_top, double tol, int64_t max_iter,
               double *z, double *q, int64_t *state, unsigned char *pattern,
               unsigned char *scratch)
{
    int64_t i, j;
    int classify = state[CLASSIFY] != 0;
    state[CLASSIFY] = 0;
    for (;;) {
        if (!classify) {
            if (state[SWEEPS] >= max_iter)
                return SOLVE_LIMIT;
            state[SWEEPS]++;
            for (i = 0; i < k; i++) {
                double zi_old = z[i];
                double zi = (c[i] - q[i] + diag[i] * zi_old) / floored[i];
                if (zi < 0.0)
                    zi = 0.0;
                else if (zi > upper[i])
                    zi = upper[i];
                double delta = zi - zi_old;
                if (delta != 0.0) {
                    const double *row = Q + i * k;
                    z[i] = zi;
                    for (j = 0; j < k; j++)
                        q[j] = q[j] + row[j] * delta;
                }
            }
            /* min(max(t, 0), u) with Python's comparisons; a NaN passes */
            int64_t w = state[WORST];
            double t = z[w] - (q[w] - c[w]);
            if (0.0 > t)
                t = 0.0;
            if (upper[w] < t)
                t = upper[w];
            if (!(fabs(t - z[w]) > tol))
                return SOLVE_PROBE;
        }
        classify = 0;
        for (i = 0; i < k; i++)
            scratch[i] = z[i] > margin[i] ? (z[i] < below_top[i] ? 1 : 2) : 0;
        if (memcmp(scratch, pattern, (size_t)k) != 0) {
            memcpy(pattern, scratch, (size_t)k);
            state[REFINED] = 0;
        } else if (!state[REFINED]) {
            return SOLVE_REPEAT;
        }
    }
}
