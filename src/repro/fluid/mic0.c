/* MIC(0) preconditioner apply, z = P U^-1 P L^-1 r, with L and U unit
 * triangular (strict parts in CSR, each row's columns ascending) and P the
 * diagonal `precon`.  Each row subtracts its terms in ascending column order,
 * as SuperLU's triangular solves do, so the result matches them bit for bit;
 * build with -ffp-contract=off so no multiply-subtract is fused.  z doubles
 * as the only work vector, so concurrent calls share no state. */
#include <stdint.h>

void mic0_apply(int64_t n, const int64_t *lp, const int64_t *li, const double *lx,
                const int64_t *up, const int64_t *ui, const double *ux,
                const double *precon, const double *r, double *z)
{
    for (int64_t i = 0; i < n; i++) {
        double t = r[i];
        for (int64_t k = lp[i]; k < lp[i + 1]; k++)
            t -= lx[k] * z[li[k]];
        z[i] = t;
    }
    for (int64_t i = 0; i < n; i++)
        z[i] *= precon[i];
    for (int64_t i = n - 1; i >= 0; i--) {
        double s = z[i];
        for (int64_t k = up[i]; k < up[i + 1]; k++)
            s -= ux[k] * z[ui[k]];
        z[i] = s;
    }
    for (int64_t i = 0; i < n; i++)
        z[i] *= precon[i];
}
