/* The cascade of pufstack.puf.photonic for a tile of challenge rows, one row
   at a time, in float64 with the definition's floors. photonic.py builds and
   loads it, and its module docstring says why every value is exact in any
   summation order and under fused multiply-adds, so no -ffast-math is
   needed and the raw intensities equal the numpy loop's bit for bit.

   Complex arrays are interleaved (real, imaginary) doubles, C-ordered:
   prefix (paths, 2^first), stages (length, paths + 2, paths), detect
   (taps, paths) and the rotation tables unit and memory (mask + 1). The
   caller passes 6 * paths doubles of scratch and the (rows, taps) result. */
#include <math.h>
#include <stdint.h>

/* stage-product columns accumulated in registers at a time */
#define BLOCK 16

/* re[w] += sum_k Re(m_k) s_k[w] and im[w] += sum_k Im(m_k) s_k[w] for
   w < n <= BLOCK, where s_k is row k of a stage */
static inline void block(int n, int paths, const double *m, const double *s,
                         double *re, double *im)
{
    double ar[BLOCK], ai[BLOCK];
    for (int w = 0; w < n; w++) {
        ar[w] = re[w];
        ai[w] = im[w];
    }
    for (int k = 0; k < paths; k++, s += 2 * paths)
        for (int w = 0; w < n; w++) {
            ar[w] += m[2 * k] * s[w];
            ai[w] += m[2 * k + 1] * s[w];
        }
    for (int w = 0; w < n; w++) {
        re[w] = ar[w];
        im[w] = ai[w];
    }
}

void cascade(int rows, const uint8_t *bits, double *scratch, double *raw,
             int length, int first, int paths, int taps, const double *prefix,
             const double *stages, const double *detect, const double *unit,
             const double *memory, int64_t kerr, int level, int shift,
             int64_t mask, double scale)
{
    double *m = scratch, *re = scratch + 2 * paths, *im = scratch + 4 * paths;
    const int64_t width = (int64_t)1 << first, stage = 2 * (int64_t)(paths + 2) * paths;
    for (int r = 0; r < rows; r++, bits += length, raw += taps) {
        int64_t col = 0;
        for (int t = 0; t < first; t++)
            col = 2 * col + bits[t];
        for (int j = 0; j < paths; j++) {
            m[2 * j] = prefix[2 * (j * width + col)];
            m[2 * j + 1] = prefix[2 * (j * width + col) + 1];
        }
        for (int t = first; t < length; t++) {
            /* y_t = [m; 1; c_t] @ stages[t] = re + i im, the folded rows first */
            const double *s = stages + t * stage, *fold = s + 2 * paths * paths;
            const double c = bits[t];
            for (int j = 0; j < 2 * paths; j++) {
                re[j] = fold[j] + c * fold[2 * paths + j];
                im[j] = 0.0;
            }
            int j = 0;
            for (; j + BLOCK <= 2 * paths; j += BLOCK)
                block(BLOCK, paths, m, s + j, re + j, im + j);
            block(2 * paths - j, paths, m, s + j, re + j, im + j);
            /* the Kerr index k_t, then m_t, or s_L into re at the last stage */
            const double *rot = t < length - 1 ? memory : unit;
            double *out = t < length - 1 ? m : re;
            for (j = 0; j < paths; j++) {
                const double yr = floor(re[2 * j] - im[2 * j + 1]);
                const double yi = floor(re[2 * j + 1] + im[2 * j]);
                const int64_t power = (int64_t)(yr * yr + yi * yi);
                const int64_t k = 2 * ((((power >> level) * kerr) >> shift) & mask);
                out[2 * j] = floor(yr * rot[k] - yi * rot[k + 1]);
                out[2 * j + 1] = floor(yr * rot[k + 1] + yi * rot[k]);
            }
        }
        for (int i = 0; i < taps; i++) {
            const double *d = detect + 2 * (int64_t)i * paths;
            double zr = 0.0, zi = 0.0;
            for (int j = 0; j < paths; j++) {
                zr += re[2 * j] * d[2 * j] - re[2 * j + 1] * d[2 * j + 1];
                zi += re[2 * j] * d[2 * j + 1] + re[2 * j + 1] * d[2 * j];
            }
            zr = floor(zr);
            zi = floor(zi);
            raw[i] = (zr * zr + zi * zi) * scale;
        }
    }
}
