/* Compiled batched kernels; see kernels_py for the contracts.
 *
 * Every arithmetic expression matches the numpy fallback, in the same order,
 * so the two backends agree bit for bit; setup.py builds this file with FP
 * contraction off, so no a*b+c is fused into one rounding.
 *
 * The three per-particle passes (the RK4 step, the weighted-moments pass
 * and the log-likelihood) run on column blocks of particles and are built
 * for AVX2 beside the baseline (WIDE, below), as is the particle filter's
 * weight pass; the loader picks one build when the module loads. A vector
 * lane runs the correctly rounded IEEE +, -, *, / and sqrt of the scalar
 * code on one particle, no sum changes its order and nothing is
 * contracted, so both builds give the same bits.
 *
 * The module exports thirteen functions, and each is the one place its
 * buffers are checked (get_shaped, get_bounds): attbench.core only allocates
 * outputs, and the filters, FdirSupervisor and runner.write_csv call the
 * entries directly. A buffer that is None (except step_rows's frames,
 * moments_rows's normals, h and r, its root being read only with normals,
 * weigh_rows's loglik, factor_rows's nu, ukf_assess_rows's prop and points
 * and gauss_update_rows's l), not a C-contiguous float64 array, a read-only
 * output or a shape that does not fit is a ValueError naming it, with the
 * message of the fallback entry; the draws take arrays of any rank.
 *
 * The entries, each with the contract of the fallback entry of its name:
 * step_rows(out, dt, ixx, iyy, izz, frames), the batched RK4 step in place.
 * moments_rows(x, normals, root, h, w, r, quaternion, mean, y_hat, s), the
 *     particle filter's cloud pass. normals may be a draw of draw_rows,
 *     which it awaits block by block and then settles, on every path out
 *     (below). It, ukf_assess_rows and weigh_rows share one weighted-moments
 *     pass (moments), so a cloud and a sigma set of the same rows and
 *     weights have the same moments, bit for bit. The pass forms z = h x
 *     once per class of rows of h equal bit for bit, and each sum of S once
 *     per ordered pair of classes.
 * loglik_rows(x, h, l, y, out) and weigh_rows(loglik, w, x, limit, out,
 *     mean, var), the particle filter's log-likelihood and weight passes;
 *     the weight pass's exp is fixed_exp.
 * factor_rows(a, bounds, nu, l), the Cholesky factor and NIS of each
 *     diagonal block [start, stop) of a that bounds lists.
 * points_rows(mu, sigma, scale, points), ekf_assess_rows(prop, eps, sigma,
 *     q, h, r, blocks, y, cov, s, cross, nu, l), ukf_assess_rows(prop, wm,
 *     wc, q, scale, h, r, r_det, blocks, y, mean, cov, points, s, s_det,
 *     cross, nu) and gauss_update_rows(mu, sigma, cross, s, l, nu, rows,
 *     quaternion, mu_out, sigma_out), the Gaussian step's fused passes
 *     (sigma_points, ekf_pass, moments, innovation, factor and update).
 * csv_rows(block) returns the rows of a C-contiguous float64 (rows, cols)
 *     block as CSV text: each value as PyOS_double_to_string(v, 'g', 9, 0)
 *     gives it, the routine Python's '%.9g' % v calls (glibc's printf
 *     would differ, printing -nan), comma-separated, each row ended by CRLF.
 *     A zero and every v with 1e-14 < |v| < 1e9 are printed exactly by
 *     integer arithmetic (g9) with the same bytes; every other value, and
 *     every value in a build without unsigned __int128, goes through
 *     PyOS_double_to_string.
 * normal_rows(rng, out) fills the C-contiguous float64 array out with the
 *     numpy Generator rng's standard normals: numpy's ziggurat, run over the
 *     generator's bitgen_t with the tables of _ziggurat.h, holding the bit
 *     generator's lock and not the GIL, as Generator.standard_normal does,
 *     so the bits and the generator's state after are that call's.
 * draw_rows(rng, out) starts normal_rows's draw and returns it as a Draw
 *     (not exported: moments_rows takes it in place of its normals, and its
 *     wait() returns out once written, the generator's lock released). The
 *     lock is held from the start of the draw until it is settled.
 * resample_rows(x, w, u, out), systematic resampling and its gather, by one
 *     merge walk.
 *
 * The worker. draw_rows posts its draw to one persistent worker thread,
 * created at the first draw that may use it, and returns at once; the
 * particle filter then runs its RK4 step while the worker draws, and its
 * moments pass awaits each block's normals only as it reaches them. One
 * draw at a time uses the worker, from its post until it is settled: a draw
 * made meanwhile or while the worker is busy, every draw of a process whose
 * affinity mask holds one CPU, and every draw of a build without pthreads
 * run inline, as normal_rows does. The worker runs the
 * same ziggurat_fill over the same bitgen_t, chunk after chunk, while the
 * poster holds the generator's lock, so every bit and the generator's state
 * after are those of the inline draw. It never touches the Python API; it
 * spins about a millisecond between draws, then sleeps; a thread that
 * awaits a stalled worker takes over the rest of the draw; a fork child
 * starts its own worker (see the worker's section, at draw_rows).
 *
 * Every sum has a fixed order and starts from -0.0, which leaves its first
 * term unchanged: a sum over the particles or points runs from row 0, and a
 * product with h, root, l or the Jacobian from column 0, skipping the terms
 * whose coefficient is zero (so a 0/1 selection h costs one term per row).
 * Every covariance sums its upper triangle and mirrors it. The Cholesky
 * kernels skip no terms: each difference subtracts its terms in column
 * order, each sum of products runs from -0.0 in column order, and each
 * division is by the pivot itself, never a multiplication by its reciprocal.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#include "_ziggurat.h"

/* The worker thread that draw_rows posts draws to (below) needs pthreads,
 * the affinity mask and GCC's __atomic builtins; without them every draw
 * runs inline. */
#if defined(__linux__) && defined(__GNUC__)
#define WORKER 1
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <time.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#define CPU_RELAX() __builtin_ia32_pause()
#elif defined(__aarch64__)
#define CPU_RELAX() __asm__ __volatile__("yield")
#else
#define CPU_RELAX() ((void)0)
#endif

/* The three per-particle passes, step_columns, moments and loglik, are
 * WIDE: the compiler builds each of them twice, for AVX2 and for the
 * baseline x86-64, and the loader's ifunc resolver binds one of the two for
 * this CPU when the module loads. Only where GCC >= 6 or clang >= 14
 * targets x86-64 with glibc's ifunc; elsewhere WIDE is empty and each pass
 * is built once, for the baseline. The helpers they call are INLINE, so
 * that each clone carries its own copy. An AVX-512F build sped the 1000-row
 * passes up per call but no workload end to end, and slowed the Gaussian
 * filters' short passes and the code around them. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__ELF__) \
    && ((defined(__clang__) && __clang_major__ >= 14) \
        || (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 6))
#define WIDE __attribute__((target_clones("avx2", "default")))
#else
#define WIDE
#endif
#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

/* Derivative of one [q, w] state, component j at s[j * ds], into k[j * dk],
 * torque-free or, when frame is not NULL, under the gravity-gradient torque
 * of the frame [ux, uy, uz, g]: g [(Izz-Iyy) c1 c2, (Ixx-Izz) c2 c0,
 * (Iyy-Ixx) c0 c1] with c = DCM(q) u, the radial unit vector in body axes.
 * The torque starts at 0.0, as in the fallback, and is not folded away:
 * 0.0 - a is +0.0 where -a is -0.0. */
INLINE void
rates(const double *s, Py_ssize_t ds, double ixx, double iyy, double izz,
      const double *frame, double *k, Py_ssize_t dk)
{
    double q0 = s[0], q1 = s[ds], q2 = s[2 * ds], q3 = s[3 * ds];
    double wx = s[4 * ds], wy = s[5 * ds], wz = s[6 * ds];
    double tx = 0.0, ty = 0.0, tz = 0.0;

    if (frame) {
        double ux = frame[0], uy = frame[1], uz = frame[2], g = frame[3];
        double c0 = (1.0 - 2.0 * (q2 * q2 + q3 * q3)) * ux
                    + (2.0 * (q1 * q2 + q0 * q3)) * uy
                    + (2.0 * (q1 * q3 - q0 * q2)) * uz;
        double c1 = (2.0 * (q1 * q2 - q0 * q3)) * ux
                    + (1.0 - 2.0 * (q1 * q1 + q3 * q3)) * uy
                    + (2.0 * (q2 * q3 + q0 * q1)) * uz;
        double c2 = (2.0 * (q1 * q3 + q0 * q2)) * ux
                    + (2.0 * (q2 * q3 - q0 * q1)) * uy
                    + (1.0 - 2.0 * (q1 * q1 + q2 * q2)) * uz;
        tx = tx + g * ((izz - iyy) * c1 * c2);
        ty = ty + g * ((ixx - izz) * c2 * c0);
        tz = tz + g * ((iyy - ixx) * c0 * c1);
    }
    k[0] = 0.5 * (-q1 * wx - q2 * wy - q3 * wz);
    k[dk] = 0.5 * (q0 * wx - q3 * wy + q2 * wz);
    k[2 * dk] = 0.5 * (q3 * wx + q0 * wy - q1 * wz);
    k[3 * dk] = 0.5 * (-q2 * wx + q1 * wy + q0 * wz);
    k[4 * dk] = (tx - (izz - iyy) * wy * wz) / ixx;
    k[5 * dk] = (ty - (ixx - izz) * wz * wx) / iyy;
    k[6 * dk] = (tz - (iyy - ixx) * wx * wy) / izz;
}

/* The per-particle passes work on blocks of BLOCK particles held
 * column-wise, t[c * BLOCK + b] for column c of the block's particle b, so
 * that their inner loops run over independent particles, which a vector
 * instruction takes several at a time. Each particle's arithmetic, and the
 * particle order of every sum, is the same as row by row. A sum starts from
 * -0.0, which leaves its first term unchanged. */
#define BLOCK 64

/* Columns 0 .. cols-1 of the block's nb rows of n doubles at a into t. */
INLINE void
to_columns(const double *restrict a, Py_ssize_t nb, Py_ssize_t n, Py_ssize_t cols,
           double *restrict t)
{
    Py_ssize_t b, c;

    /* two particles at a time: their stores to a column are adjacent */
    for (b = 0; b + 1 < nb; b += 2)
        for (c = 0; c < cols; c++) {
            t[c * BLOCK + b] = a[b * n + c];
            t[c * BLOCK + b + 1] = a[b * n + n + c];
        }
    for (; b < nb; b++)
        for (c = 0; c < cols; c++)
            t[c * BLOCK + b] = a[b * n + c];
}

INLINE void
to_rows(const double *restrict t, Py_ssize_t nb, Py_ssize_t n, Py_ssize_t cols,
        double *restrict a)
{
    Py_ssize_t b, c;

    for (b = 0; b < nb; b++)
        for (c = 0; c < cols; c++)
            a[b * n + c] = t[c * BLOCK + b];
}

/* The rates of the nb states of a block, k = rates(st), column-wise; the
 * test for a frame stays outside the loops, which branch nowhere. */
INLINE void
block_rates(const double *restrict st, Py_ssize_t nb, double ixx, double iyy, double izz,
            const double *frame, double *restrict k)
{
    Py_ssize_t b;

    if (frame)
        for (b = 0; b < nb; b++)
            rates(st + b, BLOCK, ixx, iyy, izz, frame, k + b, BLOCK);
    else
        for (b = 0; b < nb; b++)
            rates(st + b, BLOCK, ixx, iyy, izz, NULL, k + b, BLOCK);
}

/* One RK4 step of the rows [0, m) of n doubles, on column blocks of the
 * rows: the stages c + (dt/2) k1, c + (dt/2) k2 and c + dt k3, then
 * c + (dt/6) (k1 + 2 k2 + 2 k3 + k4), quaternion divided by its norm. The
 * weighted sum builds up in acc stage after stage, in the order the
 * fallback adds it, and the quaternion's sum of squares in the norm's own
 * loop before its square roots, which stay scalar: a sqrt that may set
 * errno does not vectorize. */
static void WIDE
step_columns(double *x, Py_ssize_t m, Py_ssize_t n, double dt,
             double ixx, double iyy, double izz, const double *f0, const double *f1,
             const double *f2)
{
    double ct[7 * BLOCK], st[7 * BLOCK], kt[7 * BLOCK], acc[7 * BLOCK], norm[BLOCK];
    double half = 0.5 * dt, sixth = dt / 6.0;
    Py_ssize_t i0, nb, b, e;

    for (i0 = 0; i0 < m; i0 += BLOCK) {
        nb = m - i0 < BLOCK ? m - i0 : BLOCK;
        to_columns(x + i0 * n, nb, n, 7, ct);
        block_rates(ct, nb, ixx, iyy, izz, f0, kt);
        for (e = 0; e < 7 * BLOCK; e += BLOCK)
            for (b = 0; b < nb; b++) {
                acc[e + b] = kt[e + b];
                st[e + b] = ct[e + b] + half * kt[e + b];
            }
        block_rates(st, nb, ixx, iyy, izz, f1, kt);
        for (e = 0; e < 7 * BLOCK; e += BLOCK)
            for (b = 0; b < nb; b++) {
                acc[e + b] = acc[e + b] + 2.0 * kt[e + b];
                st[e + b] = ct[e + b] + half * kt[e + b];
            }
        block_rates(st, nb, ixx, iyy, izz, f1, kt);
        for (e = 0; e < 7 * BLOCK; e += BLOCK)
            for (b = 0; b < nb; b++) {
                acc[e + b] = acc[e + b] + 2.0 * kt[e + b];
                st[e + b] = ct[e + b] + dt * kt[e + b];
            }
        block_rates(st, nb, ixx, iyy, izz, f2, kt);
        for (e = 0; e < 7 * BLOCK; e += BLOCK)
            for (b = 0; b < nb; b++)
                st[e + b] = ct[e + b] + sixth * (acc[e + b] + kt[e + b]);
        for (b = 0; b < nb; b++)
            norm[b] = st[b] * st[b] + st[BLOCK + b] * st[BLOCK + b]
                      + st[2 * BLOCK + b] * st[2 * BLOCK + b]
                      + st[3 * BLOCK + b] * st[3 * BLOCK + b];
        for (b = 0; b < nb; b++)
            norm[b] = sqrt(norm[b]);
        for (e = 0; e < 4 * BLOCK; e += BLOCK)
            for (b = 0; b < nb; b++)
                st[e + b] = st[e + b] / norm[b];
        to_rows(st, nb, n, 7, x + i0 * n);
    }
}

/* One RK4 step of m rows of n doubles, quaternion renormalized once after
 * the step; columns 7.. pass through. The frames arrive as a local copy, so
 * the compiler need not reload them after every store into the rows. */
static void
step(double *x, Py_ssize_t m, Py_ssize_t n, double dt,
     double ixx, double iyy, double izz, const double *frames_in)
{
    double frames[3][4];
    const double *f0 = NULL, *f1 = NULL, *f2 = NULL;

    if (frames_in) {
        memcpy(frames, frames_in, sizeof frames);
        f0 = frames[0];
        f1 = frames[1];
        f2 = frames[2];
    }
    step_columns(x, m, n, dt, ixx, iyy, izz, f0, f1, f2);
}

/* z = h x for each particle of the block: z[r] is the sum over c of
 * x[c] h[p, c] in column order, skipping the columns where h[p, c] == 0, for
 * the rows p = pick[0], ..., pick[count - 1] of the (., n) h (pick NULL:
 * rows 0 .. count-1). */
INLINE void
measure(const double *restrict xt, Py_ssize_t nb, const double *restrict h,
        const Py_ssize_t *pick, Py_ssize_t count, Py_ssize_t n, double *restrict zt)
{
    Py_ssize_t r, c, b;

    for (r = 0; r < count; r++) {
        const double *restrict hr = h + (pick ? pick[r] : r) * n;
        double *restrict zr = zt + r * BLOCK;

        for (b = 0; b < nb; b++)
            zr[b] = -0.0;
        for (c = 0; c < n; c++) {
            const double *restrict xc = xt + c * BLOCK;
            double hrc = hr[c];

            if (hrc != 0.0)
                for (b = 0; b < nb; b++)
                    zr[b] = zr[b] + xc[b] * hrc;
        }
    }
}

/* The classes of bitwise-equal rows of the (m, n) h: cls[j] is the class of
 * row j, numbered in order of first appearance, and first[u] the first row
 * of class u. Rows of one class give every particle the same z, so each
 * class is measured once. Returns the number of classes. */
static Py_ssize_t
row_classes(const double *h, Py_ssize_t m, Py_ssize_t n, Py_ssize_t *cls, Py_ssize_t *first)
{
    Py_ssize_t j, u, count = 0;

    for (j = 0; j < m; j++) {
        for (u = 0; u < count; u++)
            if (!memcmp(h + first[u] * n, h + j * n, n * sizeof(double)))
                break;
        if (u == count)
            first[count++] = j;
        cls[j] = u;
    }
    return count;
}

/* One sum over the particles: *acc + u[0] v[0] + u[1] v[1] + ... */
typedef struct {
    const double *u, *v;
    double *acc;
} Sum;

/* Add a block's nb terms to each of count sums, in particle order. LANES
 * sums run side by side, enough to hide the latency of an add, so count
 * must be a multiple of LANES. */
#define LANES 4

INLINE void
run_sums(const Sum *sums, Py_ssize_t count, Py_ssize_t nb)
{
    Py_ssize_t e, b;
    int k;

    for (e = 0; e < count; e += LANES) {
        const double *u[LANES], *v[LANES];
        double a[LANES];

        for (k = 0; k < LANES; k++) {
            u[k] = sums[e + k].u;
            v[k] = sums[e + k].v;
            a[k] = *sums[e + k].acc;
        }
        for (b = 0; b < nb; b++)
            for (k = 0; k < LANES; k++)
                a[k] = a[k] + u[k][b] * v[k][b];
        for (k = 0; k < LANES; k++)
            *sums[e + k].acc = a[k];
    }
}

/* Append the sum of u v into acc; pad_sums then fills up to a multiple of
 * LANES with sums of zeros into a dummy accumulator. */
static inline Py_ssize_t
add_sum(Sum *sums, Py_ssize_t count, const double *u, const double *v, double *acc)
{
    sums[count].u = u;
    sums[count].v = v;
    sums[count].acc = acc;
    *acc = -0.0;
    return count + 1;
}

static Py_ssize_t
pad_sums(Sum *sums, Py_ssize_t count, const double *zeros, double *dummy)
{
    while (count % LANES)
        count = add_sum(sums, count, zeros, zeros, dummy);
    return count;
}

/* The weighted-moments pass of moments_rows, ukf_assess_rows and
 * weigh_rows over the rows of x, with the mean weights wm and the
 * covariance weights wc (the particle filter passes its w as both). It adds
 * the jitter root normals[i] to each row in place and then renormalizes
 * columns 0..3 when asked, and writes mean = sum wm_i x_i and, when cov is
 * not NULL, cov = sum wc_i dx_i dx_i' + q with dx_i = x_i - mean. With
 * m >= 1 readings it also writes y_hat = sum wm_i z_i with z_i = h x_i (x_i
 * itself when h is NULL), s = sum wc_i dz_i dz_i' + r with
 * dz_i = z_i - y_hat (its diagonal alone with diagonal) and, when cross is
 * not NULL, cross = sum wc_i dx_i dz_i'. normals/root, q and r may each be
 * NULL: no jitter, no q, no r. Each covariance sums its upper triangle and
 * mirrors it. When pending is not NULL, normals is its draw, which the
 * worker may still be writing: the first pass awaits each block's rows
 * before it reads them.
 *
 * Rows of h that are equal bit for bit (row_classes) give the same z, so
 * z, y_hat and dz are formed once per class of rows, and each sum of S
 * (or C) once per ordered pair of classes (u(j), u(c)) with j <= c (per
 * pair (j, u(c))), then copied to every entry of that pair. The pair is
 * ordered: the term is (wc_i dz_a) dz_b, which need not round as
 * (wc_i dz_b) dz_a does. Every entry keeps the bits of its own sum.
 *
 * scratch holds MOMENTS_SCRATCH(rows, n, m, states) doubles and tail
 * MOMENTS_TAIL(n, m, states) bytes: the sums, then the classes, states
 * being whether cov or cross is asked for. The first pass keeps every
 * particle's z for the second, class by class. */
#define MOMENTS_SCRATCH(rows, n, m, states) \
    ((2 * (n) + 3 * ((m) > (n) ? (m) : (n)) + 2 + ((states) ? 2 * (n) : 0)) * BLOCK \
     + (m) * (rows))
#define MOMENTS_SUMS(n, m, states) \
    ((n) + (m) + (m) * ((m) + 1) / 2 + ((states) ? (n) * ((n) + 1) / 2 + (n) * (m) : 0) \
     + 2 * (LANES - 1))
#define MOMENTS_TAIL(n, m, states) \
    (MOMENTS_SUMS(n, m, states) * sizeof(Sum) + (m) * ((m) + 2) * sizeof(Py_ssize_t))

/* Add add (NULL adds nothing) to the upper triangle of the (k, k) out and
 * mirror it, or, with diagonal, add add's diagonal to the k entries of out. */
static void
symmetric(double *out, Py_ssize_t k, const double *add, int diagonal)
{
    Py_ssize_t j, c;

    for (j = 0; j < k; j++)
        for (c = j; c < (diagonal ? j + 1 : k); c++) {
            double *o = diagonal ? out + j : out + j * k + c;

            if (add)
                *o = *o + add[j * k + c];
            if (!diagonal)
                out[c * k + j] = *o;
        }
}

/* A draw of draw_rows (below); await_draw returns once the first upto
 * normals of the posted draw are written. */
typedef struct Draw Draw;
static void await_draw(Py_ssize_t upto);

static void WIDE
moments(double *x, Py_ssize_t rows, Py_ssize_t n, const double *normals,
        Draw *pending, const double *root, int quaternion, const double *wm,
        const double *wc, const double *q, const double *h, Py_ssize_t m, const double *r,
        double *mean, double *cov, double *y_hat, double *s, int diagonal, double *cross,
        double *scratch, Sum *sums)
{
    Py_ssize_t width = m > n ? m : n;
    int states = cov || cross;
    double *restrict xt = scratch;
    double *restrict et = xt + n * BLOCK;
    double *restrict zt = et + n * BLOCK;
    double *restrict dzt = zt + width * BLOCK;
    double *restrict wdzt = dzt + width * BLOCK;
    double *restrict wt = wdzt + width * BLOCK;
    double *restrict zeros = wt + BLOCK;
    double *restrict dxt = zeros + BLOCK;
    double *restrict wdxt = dxt + (states ? n * BLOCK : 0);
    double *restrict zc = wdxt + (states ? n * BLOCK : 0);
    const double *z = h ? zt : xt;
    Py_ssize_t *cls = (Py_ssize_t *)(sums + MOMENTS_SUMS(n, m, states));
    Py_ssize_t *first = cls + m, *pair = first + m;
    Sum *prior = sums, *spread;
    Py_ssize_t n_prior = 0, n_spread = 0, classes = m, i0, nb, b, j, c, u, *at;
    double dummy, *acc;

    if (h)
        classes = row_classes(h, m, n, cls, first);
    else
        for (j = 0; j < m; j++)
            cls[j] = first[j] = j;
    memset(zeros, 0, BLOCK * sizeof(double));
    for (j = 0; j < n; j++)
        n_prior = add_sum(prior, n_prior, wt, xt + j * BLOCK, mean + j);
    for (u = 0; h && u < classes; u++)
        n_prior = add_sum(prior, n_prior, wt, zt + u * BLOCK, y_hat + first[u]);
    n_prior = pad_sums(prior, n_prior, zeros, &dummy);
    /* the upper triangles, row by row (the lower mirrors them), or S's
     * diagonal alone, then C; a sum of S or C accumulates into the first
     * entry of its pair, whose offset pair[] keeps (-1: none yet) */
    spread = prior + n_prior;
    for (j = 0; cov && j < n; j++)
        for (c = j; c < n; c++)
            n_spread = add_sum(spread, n_spread, wdxt + j * BLOCK, dxt + c * BLOCK,
                               cov + j * n + c);
    for (j = 0; j < classes * classes; j++)
        pair[j] = -1;
    for (j = 0; j < m; j++)
        for (c = j; c < (diagonal ? j + 1 : m); c++) {
            at = pair + cls[j] * classes + cls[c];
            if (*at < 0) {
                *at = diagonal ? j : j * m + c;
                n_spread = add_sum(spread, n_spread, wdzt + cls[j] * BLOCK,
                                   dzt + cls[c] * BLOCK, s + *at);
            }
        }
    for (j = 0; cross && j < n; j++)
        for (u = 0; u < classes; u++)
            n_spread = add_sum(spread, n_spread, wdxt + j * BLOCK, dzt + u * BLOCK,
                               cross + j * m + first[u]);
    n_spread = pad_sums(spread, n_spread, zeros, &dummy);

    for (i0 = 0; i0 < rows; i0 += BLOCK) {
        nb = rows - i0 < BLOCK ? rows - i0 : BLOCK;
        to_columns(x + i0 * n, nb, n, n, xt);
        if (normals) {
            if (pending)
                await_draw((i0 + nb) * n);
            to_columns(normals + i0 * n, nb, n, n, et);
            measure(et, nb, root, NULL, n, n, zt);
            for (j = 0; j < n; j++)
                for (b = 0; b < nb; b++)
                    xt[j * BLOCK + b] = xt[j * BLOCK + b] + zt[j * BLOCK + b];
        }
        if (quaternion) {
            /* the squares summed, then their square roots, as in step_columns */
            for (b = 0; b < nb; b++)
                dzt[b] = xt[b] * xt[b] + xt[BLOCK + b] * xt[BLOCK + b]
                         + xt[2 * BLOCK + b] * xt[2 * BLOCK + b]
                         + xt[3 * BLOCK + b] * xt[3 * BLOCK + b];
            for (b = 0; b < nb; b++)
                dzt[b] = sqrt(dzt[b]);
            for (j = 0; j < 4; j++)
                for (b = 0; b < nb; b++)
                    xt[j * BLOCK + b] = xt[j * BLOCK + b] / dzt[b];
        }
        if (normals || quaternion)
            to_rows(xt, nb, n, n, x + i0 * n);
        if (h)
            measure(xt, nb, h, first, classes, n, zt);
        for (u = 0; u < classes; u++)
            memcpy(zc + u * rows + i0, z + u * BLOCK, nb * sizeof(double));
        memcpy(wt, wm + i0, nb * sizeof(double));
        run_sums(prior, n_prior, nb);
    }
    if (!h && m)
        memcpy(y_hat, mean, n * sizeof(double));
    for (i0 = 0; i0 < rows; i0 += BLOCK) {
        nb = rows - i0 < BLOCK ? rows - i0 : BLOCK;
        if (states)
            to_columns(x + i0 * n, nb, n, n, xt);
        for (j = 0; states && j < n; j++)
            for (b = 0; b < nb; b++) {
                dxt[j * BLOCK + b] = xt[j * BLOCK + b] - mean[j];
                wdxt[j * BLOCK + b] = wc[i0 + b] * dxt[j * BLOCK + b];
            }
        for (u = 0; u < classes; u++) {
            const double *restrict zu = zc + u * rows + i0;
            double yu = y_hat[first[u]];

            for (b = 0; b < nb; b++) {
                dzt[u * BLOCK + b] = zu[b] - yu;
                wdzt[u * BLOCK + b] = wc[i0 + b] * dzt[u * BLOCK + b];
            }
        }
        run_sums(spread, n_spread, nb);
    }
    /* every entry of a class, or of a pair of classes, takes its sum */
    for (j = 0; j < m; j++) {
        y_hat[j] = y_hat[first[cls[j]]];
        for (c = j; c < (diagonal ? j + 1 : m); c++) {
            acc = diagonal ? s + j : s + j * m + c;
            *acc = s[pair[cls[j] * classes + cls[c]]];
        }
        for (c = 0; cross && c < n; c++)
            cross[c * m + j] = cross[c * m + first[cls[j]]];
    }
    if (cov)
        symmetric(cov, n, q, 0);
    if (m)
        symmetric(s, m, r, diagonal);
}


/* The rows of loglik_rows, skipping the terms where l[j, c] == 0 as
 * measure skips the zeros of h, and measuring each class of equal rows of h
 * once (row_classes). scratch holds (n + 2 k + 1) BLOCK doubles, then 2 k
 * Py_ssize_t. */
static void WIDE
loglik(const double *x, Py_ssize_t rows, Py_ssize_t n, const double *h,
       Py_ssize_t k, const double *l, const double *y, double *out, double *scratch)
{
    double *restrict xt = scratch;
    double *restrict vt = xt + n * BLOCK;
    double *restrict zt = vt + k * BLOCK;
    double *restrict ss = zt + k * BLOCK;
    Py_ssize_t *cls = (Py_ssize_t *)(ss + BLOCK), *first = cls + k;
    Py_ssize_t classes = row_classes(h, k, n, cls, first), i0, nb, b, j, c;

    for (i0 = 0; i0 < rows; i0 += BLOCK) {
        nb = rows - i0 < BLOCK ? rows - i0 : BLOCK;
        to_columns(x + i0 * n, nb, n, n, xt);
        measure(xt, nb, h, first, classes, n, zt);
        /* forward substitution, row j after rows 0 .. j-1 */
        for (j = 0; j < k; j++) {
            double *restrict vj = vt + j * BLOCK;
            const double *restrict zj = zt + cls[j] * BLOCK;
            double ljj = l[j * k + j];

            for (b = 0; b < nb; b++)
                vj[b] = y[j] - zj[b];
            for (c = 0; c < j; c++) {
                const double *restrict vc = vt + c * BLOCK;
                double ljc = l[j * k + c];

                if (ljc != 0.0)
                    for (b = 0; b < nb; b++)
                        vj[b] = vj[b] - ljc * vc[b];
            }
            for (b = 0; b < nb; b++)
                vj[b] = vj[b] / ljj;
        }
        for (b = 0; b < nb; b++)
            ss[b] = -0.0;
        for (j = 0; j < k; j++)
            for (b = 0; b < nb; b++)
                ss[b] = ss[b] + vt[j * BLOCK + b] * vt[j * BLOCK + b];
        for (b = 0; b < nb; b++)
            out[i0 + b] = -0.5 * ss[b];
    }
}

/* exp(x) from +, -, * and selects alone, so every build gives the same
 * bits (Muller, Elementary Functions, 2016, ch. 11; the reduction and the
 * thresholds are fdlibm's). Cody-Waite reduction: k = x / ln 2 rounded to
 * the nearest integer (ties to even) by adding and subtracting 1.5 2^52,
 * and r = hi - lo with hi = x - k LN2_HI, exact, and lo = k LN2_LO, so
 * |r| <= ln(2) / 2; e = (hi - r) - lo is the rounding error of r. Then
 * exp(r) = 1 + (r + (r^2 p(r) + e)), p the Taylor polynomial
 * 1/2! + r/3! + ... + r^11/13! by Estrin's scheme (pairs a + b r, then
 * pairs of those times r^2, then r^4), and the result 2^k exp(r) as ldexp
 * gives it: one multiply by 2^k when that is exact, else by 2^(k + 1022)
 * and then 2^-1022 (a subnormal result, rounded once), or by 2^(k - 1) and
 * then 2. 2^j is built from the bits of 1.5 2^52 + j. Below EXP_UNDER
 * (-inf too) the result is 0, above EXP_OVER it is inf, and a NaN comes
 * back as it is; these selects replace whatever the arithmetic gave there.
 * Within 1 ulp of exp on [-745.2, 0]; exactly 1 at +-0. */
#define EXP_SHIFT 6755399441055744.0 /* 1.5 2^52 */
#define INV_LN2 1.4426950408889634
#define LN2_HI 6.93147180369123816490e-01 /* 32 bits: k LN2_HI is exact */
#define LN2_LO 1.90821492927058770002e-10
#define EXP_UNDER -7.45133219101941108420e+02
#define EXP_OVER 7.09782712893383973096e+02

/* a where c is true, else b, by the bits: a select that the AVX2 build
 * runs as one vector operation (a conditional over doubles is a branch
 * there, since the comparisons may trap) */
INLINE double
pick(int c, double a, double b)
{
    uint64_t mask = -(uint64_t)c, ua, ub;

    memcpy(&ua, &a, sizeof(ua));
    memcpy(&ub, &b, sizeof(ub));
    ua = (ua & mask) | (ub & ~mask);
    memcpy(&a, &ua, sizeof(a));
    return a;
}

INLINE double
fixed_exp(double x)
{
    static const double p[12] = {
        1.0 / 2, 1.0 / 6, 1.0 / 24, 1.0 / 120, 1.0 / 720, 1.0 / 5040, 1.0 / 40320,
        1.0 / 362880, 1.0 / 3628800, 1.0 / 39916800, 1.0 / 479001600, 1.0 / 6227020800};
    double t = x * INV_LN2 + EXP_SHIFT, k = t - EXP_SHIFT;
    double hi = x - k * LN2_HI, lo = k * LN2_LO, r = hi - lo, e = (hi - r) - lo;
    double r2 = r * r, r4 = r2 * r2, poly, y, k2, s1, s2;
    int below = k < -1021.0, above = k > 1023.0;
    uint64_t bits;

    poly = ((p[0] + p[1] * r) + (p[2] + p[3] * r) * r2)
           + r4 * (((p[4] + p[5] * r) + (p[6] + p[7] * r) * r2)
                   + r4 * ((p[8] + p[9] * r) + (p[10] + p[11] * r) * r2));
    y = 1.0 + (r + (r2 * poly + e));
    k2 = pick(below, -1022.0, pick(above, 1.0, 0.0));
    s2 = pick(below, 0x1p-1022, pick(above, 2.0, 1.0));
    t = t - k2;
    memcpy(&bits, &t, sizeof(bits));
    bits = (bits + 1023) << 52;
    memcpy(&s1, &bits, sizeof(s1));
    y = (y * s1) * s2;
    y = pick(x < EXP_UNDER, 0.0, y);
    y = pick(x > EXP_OVER, INFINITY, y);
    return pick(x != x, x, y);
}

/* The particle filter's weight pass of weigh_rows: out = w exp(loglik -
 * max loglik) (the max is NaN when any entry is), normalized by its total
 * summed in row order from -0.0, or 1/rows each when that total is not a
 * finite number > 0, which it returns as 1; loglik NULL copies w. Then
 * writes the ESS 1 / (out_0^2 + out_1^2 + ...), summed in row order from
 * -0.0. Each sum runs in the loop that forms its terms. */
static int WIDE
weigh(const double *loglik, const double *w, Py_ssize_t rows, double *out, double *ess)
{
    double top, total = -0.0, squares = -0.0;
    Py_ssize_t i;
    int reset = 0;

    if (!loglik) {
        memcpy(out, w, rows * sizeof(double));
        for (i = 0; i < rows; i++)
            squares = squares + out[i] * out[i];
    } else {
        top = loglik[0];
        for (i = 1; i < rows && top == top; i++)
            if (!(loglik[i] <= top))
                top = loglik[i];
        for (i = 0; i < rows; i++) {
            out[i] = w[i] * fixed_exp(loglik[i] - top);
            total = total + out[i];
        }
        reset = !(isfinite(total) && total > 0.0);
        for (i = 0; i < rows; i++) {
            out[i] = reset ? 1.0 / (double)rows : out[i] / total;
            squares = squares + out[i] * out[i];
        }
    }
    *ess = 1.0 / squares;
    return reset;
}

/* Cholesky factor of the diagonal block [lo, hi) of the (m, m) a into the
 * same block of l, row by row: l[i, j] = (a[i, j] - l[i, lo] l[j, lo] - ...
 * - l[i, j-1] l[j, j-1]) / l[j, j] for lo <= j < i, subtracted in that
 * order, and l[i, i] = sqrt(a[i, i] - l[i, lo]^2 - ... - l[i, i-1]^2). Only
 * the block's lower triangle of a is read. Returns the first row whose
 * pivot is not a finite number > 0, or -1. */
static Py_ssize_t
factor(const double *a, Py_ssize_t m, Py_ssize_t lo, Py_ssize_t hi, double *l)
{
    Py_ssize_t i, j, k;

    for (i = lo; i < hi; i++) {
        const double *ai = a + i * m;
        double *li = l + i * m;

        for (j = lo; j <= i; j++) {
            const double *lj = l + j * m;
            double acc = ai[j];

            for (k = lo; k < j; k++)
                acc = acc - li[k] * lj[k];
            if (j < i)
                li[j] = acc / lj[j];
            else if (acc > 0.0 && acc < INFINITY)
                li[i] = sqrt(acc);
            else
                return i;
        }
    }
    return -1;
}

/* v = l^-1 b on the rows [lo, hi) of the lower-triangular l, by forward
 * substitution: v[i] = (b[i] - l[i, lo] v[lo] - ... - l[i, i-1] v[i-1]) /
 * l[i, i], subtracted in that order. */
static inline void
forward(const double *l, Py_ssize_t m, Py_ssize_t lo, Py_ssize_t hi, const double *b, double *v)
{
    Py_ssize_t i, k;

    for (i = lo; i < hi; i++) {
        double acc = b[i];

        for (k = lo; k < i; k++)
            acc = acc - l[i * m + k] * v[k];
        v[i] = acc / l[i * m + i];
    }
}

/* The NIS |l^-1 nu|^2 on the rows [lo, hi): forward into v, then the
 * squares summed from -0.0 in row order. */
static double
block_nis(const double *l, Py_ssize_t m, Py_ssize_t lo, Py_ssize_t hi, const double *nu,
          double *v)
{
    double ss = -0.0;
    Py_ssize_t i;

    forward(l, m, lo, hi, nu, v);
    for (i = lo; i < hi; i++)
        ss = ss + v[i] * v[i];
    return ss;
}

/* The Kalman update of gauss_update_rows: W = C l^-T row by row (row r of W is
 * l^-1 applied to row r of the (n, m) C), v = l^-1 nu, mu_out = mu + W v and
 * sigma_out = sigma - W W', whose upper triangle is summed, from -0.0 in
 * column order, and mirrored. scratch holds n m + m doubles. */
static void
update(const double *mu, const double *sigma, Py_ssize_t n, const double *cross,
       const double *l, Py_ssize_t m, const double *nu, double *mu_out, double *sigma_out,
       double *scratch)
{
    double *w = scratch, *v = scratch + n * m;
    Py_ssize_t r, c, j;

    forward(l, m, 0, m, nu, v);
    for (r = 0; r < n; r++) {
        double acc = -0.0;

        forward(l, m, 0, m, cross + r * m, w + r * m);
        for (j = 0; j < m; j++)
            acc = acc + w[r * m + j] * v[j];
        mu_out[r] = mu[r] + acc;
    }
    for (r = 0; r < n; r++)
        for (c = r; c < n; c++) {
            double acc = -0.0;

            for (j = 0; j < m; j++)
                acc = acc + w[r * m + j] * w[c * m + j];
            sigma_out[r * n + c] = sigma[r * n + c] - acc;
            sigma_out[c * n + r] = sigma_out[r * n + c];
        }
}

/* The EKF's products keep each sum's order (column by column, from -0.0)
 * but advance many independent sums in each inner loop, so that one sum's
 * adds need not wait for each other. Where the coefficient to test varies
 * along the inner loop, a skipped term adds -0.0 instead of branching: -0.0
 * changes no sum. */

/* z_i = h x_i for the rows of n doubles of x, into the rows of m doubles of
 * z: z[i, r] = x[i, 0] h[r, 0] + x[i, 1] h[r, 1] + ... from -0.0, skipping
 * the columns where h[r, c] == 0. */
static void
product(const double *restrict h, Py_ssize_t m, Py_ssize_t n, const double *restrict x,
        Py_ssize_t rows, double *restrict z)
{
    Py_ssize_t i, r, c;

    for (i = 0; i < rows * m; i++)
        z[i] = -0.0;
    for (r = 0; r < m; r++)
        for (c = 0; c < n; c++) {
            double hrc = h[r * n + c];

            if (hrc != 0.0)
                for (i = 0; i < rows; i++)
                    z[i * m + r] = z[i * m + r] + x[i * n + c] * hrc;
        }
}

/* The EKF's predicted covariance and measurement moments from the
 * (2n + 1, n) stencil prop: cov = a sigma a' + q with the central-difference
 * Jacobian a, y_hat = h prop[0], cross = cov h' and s = h cross + r.
 * scratch holds 2 n n doubles. */
static void
ekf_pass(const double *restrict prop, Py_ssize_t n, double eps, const double *restrict sigma,
         const double *restrict q, const double *restrict h, Py_ssize_t m,
         const double *restrict r, double *restrict cov, double *restrict y_hat,
         double *restrict s, double *restrict cross, double *restrict scratch)
{
    double *restrict a = scratch, *restrict t = scratch + n * n;
    double two_eps = 2.0 * eps;
    Py_ssize_t i, j, k, c;

    for (i = 0; i < n; i++)
        for (j = 0; j < n; j++)
            a[i * n + j] = (prop[(1 + j) * n + i] - prop[(1 + n + j) * n + i]) / two_eps;
    /* t = a sigma: t[i, c] sums a[i, j] sigma[j, c] over j */
    for (i = 0; i < n; i++) {
        for (c = 0; c < n; c++)
            t[i * n + c] = -0.0;
        for (j = 0; j < n; j++) {
            double aij = a[i * n + j];

            if (aij != 0.0)
                for (c = 0; c < n; c++)
                    t[i * n + c] = t[i * n + c] + aij * sigma[j * n + c];
        }
    }
    /* cov = t a' + q: cov[i, k], k >= i, sums t[i, c] a[k, c] over c */
    for (i = 0; i < n; i++) {
        for (k = i; k < n; k++)
            cov[i * n + k] = -0.0;
        for (c = 0; c < n; c++) {
            double tic = t[i * n + c];

            for (k = i; k < n; k++) {
                double akc = a[k * n + c];

                cov[i * n + k] = cov[i * n + k] + (akc != 0.0 ? tic * akc : -0.0);
            }
        }
    }
    symmetric(cov, n, q, 0);
    product(h, m, n, prop, 1, y_hat);
    product(h, m, n, cov, n, cross);
    /* s = h cross + r: s[i, k], k >= i, sums h[i, j] cross[j, k] over j */
    for (i = 0; i < m; i++) {
        for (k = i; k < m; k++)
            s[i * m + k] = -0.0;
        for (j = 0; j < n; j++) {
            double hij = h[i * n + j];

            if (hij != 0.0)
                for (k = i; k < m; k++)
                    s[i * m + k] = s[i * m + k] + hij * cross[j * m + k];
        }
    }
    symmetric(s, m, r, 0);
}

/* The sigma set about mu: l = the Cholesky factor of a = scale sigma (its
 * lower triangle; the upper is zeroed), then row 0 of points is mu, row
 * 1 + j is mu + column j of l and row 1 + n + j is mu - column j. a and l
 * hold n n doubles each. Returns -1, writing no point, when scale sigma is
 * not positive definite, else 0. */
static int
sigma_points(const double *restrict mu, const double *restrict sigma, Py_ssize_t n, double scale,
             double *restrict a, double *restrict l, double *restrict points)
{
    Py_ssize_t i, j;

    for (i = 0; i < n; i++)
        for (j = 0; j <= i; j++)
            a[i * n + j] = scale * sigma[i * n + j];
    memset(l, 0, n * n * sizeof(double));
    if (factor(a, n, 0, n, l) >= 0)
        return -1;
    memcpy(points, mu, n * sizeof(double));
    for (j = 0; j < n; j++)
        for (i = 0; i < n; i++) {
            points[(1 + j) * n + i] = mu[i] + l[i * n + j];
            points[(1 + n + j) * n + i] = mu[i] - l[i * n + j];
        }
    return 0;
}

/* nu = y_al - y_hat for the m rows of y. y_al, m doubles of scratch, is y
 * with each hemisphere block [lo, lo + 4) that the count edges list, in
 * list order, negated where its dot product with q[0..3], y_al[lo] q[0] +
 * ... + y_al[lo + 3] q[3] summed in that order, is negative. */
static void
innovation(const double *y, const double *y_hat, Py_ssize_t m, const double *q,
           const Py_ssize_t *edges, Py_ssize_t count, double *y_al, double *nu)
{
    Py_ssize_t i, b;

    memcpy(y_al, y, m * sizeof(double));
    for (b = 0; b < count; b += 2) {
        double *yb = y_al + edges[b];

        if (yb[0] * q[0] + yb[1] * q[1] + yb[2] * q[2] + yb[3] * q[3] < 0.0)
            for (i = 0; i < 4; i++)
                yb[i] = -yb[i];
    }
    for (i = 0; i < m; i++)
        nu[i] = y_al[i] - y_hat[i];
}

/* The buffers of one call: every view starts empty, so release_all may run
 * after any failure. */
#define MAX_VIEWS 16

static void
release_all(Py_buffer *views)
{
    int i;

    for (i = 0; i < MAX_VIEWS; i++)
        PyBuffer_Release(&views[i]);
}

/* An expected dimension: d >= 0 fits a size of d alone, AT_LEAST(k) every
 * size >= k (so -1 any size). */
#define AT_LEAST(k) (-1 - (k))
#define FITS(size, d) ((d) >= 0 ? (size) == (d) : (size) >= -1 - (d))
/* The ranks get_shaped takes in place of one exact rank. */
#define RANK_1_OR_2 0
#define ANY_RANK -1

/* The buffer of a required argument, kernels_py._buffer's rules in its
 * order, each refusal a ValueError naming the argument: it is given; it is a
 * C-contiguous float64 buffer; it is writable when flags has PyBUF_WRITABLE;
 * and its rank is ndim, its first dimension fits d0 and a second fits d1. */
static int
get_shaped(PyObject *obj, Py_buffer *view, int flags, int ndim,
           Py_ssize_t d0, Py_ssize_t d1, const char *name, double **data)
{
    const char *wrong = "%s must be a C-contiguous float64 array";

    if (obj == Py_None) {
        PyErr_Format(PyExc_ValueError, "%s is required", name);
        return -1;
    }
    /* writability is checked below, so that its refusal names the buffer */
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        PyErr_Clear();
    else if (view->itemsize != sizeof(double) || strcmp(view->format, "d") != 0)
        ;
    else if ((flags & PyBUF_WRITABLE) && view->readonly)
        wrong = "%s must be writable";
    else if ((ndim > 0 ? view->ndim != ndim : ndim == RANK_1_OR_2 && view->ndim != 1
              && view->ndim != 2)
             || (view->ndim >= 1 && !FITS(view->shape[0], d0))
             || (view->ndim >= 2 && !FITS(view->shape[1], d1)))
        wrong = "%s has the wrong shape";
    else {
        *data = view->buf;
        return 0;
    }
    PyBuffer_Release(view);
    PyErr_Format(PyExc_ValueError, wrong, name);
    return -1;
}

/* get_shaped for an argument that may be None, which leaves *data NULL. */
static int
get_optional(PyObject *obj, Py_buffer *view, int flags, int ndim,
             Py_ssize_t d0, Py_ssize_t d1, const char *name, double **data)
{
    *data = NULL;
    return obj == Py_None ? 0 : get_shaped(obj, view, flags, ndim, d0, d1, name, data);
}

/* A width that asks get_bounds for row indices in place of pairs. */
#define INDICES -1

/* The *count edges of the tuple bounds, in a new array to PyMem_RawFree
 * (NULL for an empty tuple): flat (start, stop) pairs, each
 * 0 <= start < stop <= m and, when width > 0, stop = start + width; or,
 * with width INDICES, row indices 0 <= i < m. kernels_py._bounds has the
 * same rules. Returns -1 with ValueError naming it otherwise, or TypeError
 * when it is not a tuple or an edge is not an int. */
static int
get_bounds(PyObject *bounds, Py_ssize_t m, Py_ssize_t width, const char *name,
           Py_ssize_t **edges, Py_ssize_t *count)
{
    Py_ssize_t i, *e;

    *edges = NULL;
    if (!PyTuple_Check(bounds)) {
        PyErr_Format(PyExc_TypeError, "%s must be a tuple", name);
        return -1;
    }
    *count = PyTuple_GET_SIZE(bounds);
    if (width != INDICES && *count % 2) {
        PyErr_Format(PyExc_ValueError, "%s must hold (start, stop) pairs", name);
        return -1;
    }
    if (!*count)
        return 0;
    if (!(e = PyMem_RawMalloc(*count * sizeof(Py_ssize_t)))) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < *count; i++) {
        e[i] = PyLong_AsSsize_t(PyTuple_GET_ITEM(bounds, i));
        if (e[i] == -1 && PyErr_Occurred())
            goto fail;
        if (width == INDICES ? e[i] < 0 || e[i] >= m
            : e[i] < 0 || e[i] > m || (i % 2 && (e[i] <= e[i - 1]
                                                 || (width > 0 && e[i] - e[i - 1] != width)))) {
            if (width == INDICES)
                PyErr_Format(PyExc_ValueError, "%s must be indices in [0, m)", name);
            else if (width > 0)
                PyErr_Format(PyExc_ValueError, "%s must be blocks of %zd rows inside the %zd",
                             name, width, m);
            else
                PyErr_Format(PyExc_ValueError, "%s must be 0 <= start < stop <= m", name);
            goto fail;
        }
    }
    *edges = e;
    return 0;
fail:
    PyMem_RawFree(e);
    return -1;
}

/* The error of a factor that failed at row bad. */
static PyObject *
not_positive_definite(Py_ssize_t bad)
{
    return PyErr_Format(PyExc_ValueError, "matrix is not positive definite (pivot of row %zd)",
                        bad);
}

static PyObject *
step_rows(PyObject *self, PyObject *args)
{
    PyObject *states, *frames;
    Py_buffer v[MAX_VIEWS] = {{0}};
    double *x, *f, dt, ixx, iyy, izz;

    if (!PyArg_ParseTuple(args, "OddddO:step_rows", &states, &dt, &ixx, &iyy, &izz, &frames))
        return NULL;
    if (get_shaped(states, &v[0], PyBUF_WRITABLE, 2, -1, AT_LEAST(7), "states", &x) < 0
        || get_optional(frames, &v[1], PyBUF_SIMPLE, 2, 3, 4, "frames", &f) < 0)
        goto fail;
    Py_BEGIN_ALLOW_THREADS
    step(x, v[0].shape[0], v[0].shape[1], dt, ixx, iyy, izz, f);
    Py_END_ALLOW_THREADS
    release_all(v);
    Py_RETURN_NONE;
fail:
    release_all(v);
    return NULL;
}

/* The normals moments_rows takes may be a Draw of draw_rows (below). */
static PyObject *draw_array(PyObject *normals, Draw **pending);
static int settle_normals(PyObject *normals, int failed);

static PyObject *
moments_rows(PyObject *self, PyObject *args)
{
    PyObject *xo, *drawo, *eo, *lo, *ho, *wo, *ro, *meano, *yo, *so;
    Py_buffer v[MAX_VIEWS] = {{0}};
    double *x, *e, *l = NULL, *h, *w, *r, *mean, *y_hat, *s, *scratch;
    Draw *pending;
    Sum *sums;
    Py_ssize_t rows, n, m;
    int quaternion, diagonal;

    if (!PyArg_ParseTuple(args, "OOOOOOpOOO:moments_rows", &xo, &drawo, &lo, &ho, &wo, &ro,
                          &quaternion, &meano, &yo, &so))
        return NULL;
    eo = draw_array(drawo, &pending);

    if (get_shaped(xo, &v[0], eo != Py_None || quaternion ? PyBUF_WRITABLE : PyBUF_SIMPLE,
                   2, AT_LEAST(1), AT_LEAST(quaternion ? 4 : 1), "cloud", &x) < 0)
        goto fail;
    rows = v[0].shape[0];
    n = v[0].shape[1];
    if (get_optional(ho, &v[1], PyBUF_SIMPLE, 2, AT_LEAST(1), n, "H", &h) < 0)
        goto fail;
    m = h ? v[1].shape[0] : n;
    if (get_optional(eo, &v[2], PyBUF_SIMPLE, 2, rows, n, "normals", &e) < 0
        || (e && get_shaped(lo, &v[3], PyBUF_SIMPLE, 2, n, n, "root", &l) < 0)
        || get_shaped(wo, &v[4], PyBUF_SIMPLE, 1, rows, -1, "weights", &w) < 0
        || get_optional(ro, &v[5], PyBUF_SIMPLE, 2, m, m, "R", &r) < 0
        || get_shaped(meano, &v[6], PyBUF_WRITABLE, 1, n, -1, "mean", &mean) < 0
        || get_shaped(yo, &v[7], PyBUF_WRITABLE, 1, m, -1, "y_hat", &y_hat) < 0
        || get_shaped(so, &v[8], PyBUF_WRITABLE, RANK_1_OR_2, m, m, "s", &s) < 0)
        goto fail;
    /* a 1-D s asks for the diagonal of S alone */
    diagonal = v[8].ndim == 1;
    scratch = PyMem_RawMalloc(MOMENTS_SCRATCH(rows, n, m, 0) * sizeof(double)
                              + MOMENTS_TAIL(n, m, 0));
    if (!scratch) {
        PyErr_NoMemory();
        goto fail;
    }
    sums = (Sum *)(scratch + MOMENTS_SCRATCH(rows, n, m, 0));
    Py_BEGIN_ALLOW_THREADS
    moments(x, rows, n, e, pending, l, quaternion, w, w, NULL, h, m, r, mean, NULL, y_hat, s,
            diagonal, NULL, scratch, sums);
    Py_END_ALLOW_THREADS
    PyMem_RawFree(scratch);
    release_all(v);
    if (settle_normals(drawo, 0) < 0)
        return NULL;
    Py_RETURN_NONE;
fail:
    release_all(v);
    settle_normals(drawo, 1);
    return NULL;
}

static PyObject *
loglik_rows(PyObject *self, PyObject *args)
{
    PyObject *xo, *ho, *lo, *yo, *outo;
    Py_buffer v[MAX_VIEWS] = {{0}};
    double *x, *h, *l, *y, *out, *scratch;
    Py_ssize_t rows, n, k;

    if (!PyArg_ParseTuple(args, "OOOOO:loglik_rows", &xo, &ho, &lo, &yo, &outo))
        return NULL;
    if (get_shaped(xo, &v[0], PyBUF_SIMPLE, 2, -1, AT_LEAST(1), "x", &x) < 0)
        goto fail;
    rows = v[0].shape[0];
    n = v[0].shape[1];
    if (get_shaped(ho, &v[1], PyBUF_SIMPLE, 2, AT_LEAST(1), n, "h", &h) < 0)
        goto fail;
    k = v[1].shape[0];
    if (get_shaped(lo, &v[2], PyBUF_SIMPLE, 2, k, k, "l", &l) < 0
        || get_shaped(yo, &v[3], PyBUF_SIMPLE, 1, k, -1, "y", &y) < 0
        || get_shaped(outo, &v[4], PyBUF_WRITABLE, 1, rows, -1, "out", &out) < 0)
        goto fail;
    scratch = PyMem_RawMalloc((n + 2 * k + 1) * BLOCK * sizeof(double)
                              + 2 * k * sizeof(Py_ssize_t));
    if (!scratch) {
        PyErr_NoMemory();
        goto fail;
    }
    Py_BEGIN_ALLOW_THREADS
    loglik(x, rows, n, h, k, l, y, out, scratch);
    Py_END_ALLOW_THREADS
    PyMem_RawFree(scratch);
    release_all(v);
    Py_RETURN_NONE;
fail:
    release_all(v);
    return NULL;
}

static PyObject *
weigh_rows(PyObject *self, PyObject *args)
{
    PyObject *lo, *wo, *xo, *outo, *meano, *varo;
    Py_buffer v[MAX_VIEWS] = {{0}};
    double *loglik, *w, *x, *out, *mean, *var, *scratch, limit, ess;
    Py_ssize_t rows, n, size;
    int reset, resample;

    if (!PyArg_ParseTuple(args, "OOOdOOO:weigh_rows", &lo, &wo, &xo, &limit, &outo, &meano,
                          &varo))
        return NULL;
    if (get_shaped(xo, &v[0], PyBUF_SIMPLE, 2, AT_LEAST(1), AT_LEAST(1), "x", &x) < 0)
        goto fail;
    rows = v[0].shape[0];
    n = v[0].shape[1];
    if (get_optional(lo, &v[1], PyBUF_SIMPLE, 1, rows, -1, "loglik", &loglik) < 0
        || get_shaped(wo, &v[2], PyBUF_SIMPLE, 1, rows, -1, "w", &w) < 0
        || get_shaped(outo, &v[3], PyBUF_WRITABLE, 1, rows, -1, "out", &out) < 0
        || get_shaped(meano, &v[4], PyBUF_WRITABLE, 1, n, -1, "mean", &mean) < 0
        || get_shaped(varo, &v[5], PyBUF_WRITABLE, 1, n, -1, "var", &var) < 0)
        goto fail;
    /* moments's scratch, then the y_hat it writes, then its tail */
    size = MOMENTS_SCRATCH(rows, n, n, 0) + n;
    scratch = PyMem_RawMalloc(size * sizeof(double) + MOMENTS_TAIL(n, n, 0));
    if (!scratch) {
        PyErr_NoMemory();
        goto fail;
    }
    Py_BEGIN_ALLOW_THREADS
    reset = weigh(loglik, w, rows, out, &ess);
    resample = ess < limit;
    if (!resample)
        moments(x, rows, n, NULL, NULL, NULL, 0, out, out, NULL, NULL, n, NULL, mean, NULL,
                scratch + size - n, var, 1, NULL, scratch, (Sum *)(scratch + size));
    Py_END_ALLOW_THREADS
    PyMem_RawFree(scratch);
    release_all(v);
    return Py_BuildValue("(NN)", PyBool_FromLong(reset), PyBool_FromLong(resample));
fail:
    release_all(v);
    return NULL;
}

static PyObject *
factor_rows(PyObject *self, PyObject *args)
{
    PyObject *ao, *bounds, *nuo, *lo_, *nis = NULL;
    Py_buffer v[MAX_VIEWS] = {{0}};
    double *a, *nu, *l, *scratch = NULL;
    Py_ssize_t m, count, b, bad = -1, *edges = NULL;

    if (!PyArg_ParseTuple(args, "OOOO:factor_rows", &ao, &bounds, &nuo, &lo_))
        return NULL;
    if (get_shaped(ao, &v[0], PyBUF_SIMPLE, 2, AT_LEAST(1), -1, "S", &a) < 0)
        goto fail;
    m = v[0].shape[0];
    if (v[0].shape[1] != m) {
        PyErr_SetString(PyExc_ValueError, "S must be a square matrix");
        goto fail;
    }
    if (get_optional(nuo, &v[1], PyBUF_SIMPLE, 1, m, -1, "nu", &nu) < 0
        || get_shaped(lo_, &v[2], PyBUF_WRITABLE, 2, m, m, "l", &l) < 0)
        goto fail;
    if (get_bounds(bounds, m, 0, "bounds", &edges, &count) < 0)
        goto fail;
    if (!count) {
        PyErr_SetString(PyExc_ValueError, "bounds must hold (start, stop) pairs");
        goto fail;
    }
    if (nu && !(scratch = PyMem_RawMalloc(m * sizeof(double)))) {
        PyErr_NoMemory();
        goto fail;
    }
    nis = PyTuple_New(nu ? count / 2 : 0);
    if (!nis)
        goto fail;
    for (b = 0; b < count / 2; b++) {
        PyObject *f;

        bad = factor(a, m, edges[2 * b], edges[2 * b + 1], l);
        if (bad >= 0)
            break;
        if (!nu)
            continue;
        if (!(f = PyFloat_FromDouble(block_nis(l, m, edges[2 * b], edges[2 * b + 1], nu,
                                               scratch))))
            goto fail;
        PyTuple_SET_ITEM(nis, b, f);
    }
    if (bad >= 0) {
        not_positive_definite(bad);
        goto fail;
    }
    PyMem_RawFree(edges);
    PyMem_RawFree(scratch);
    release_all(v);
    return nis;
fail:
    Py_XDECREF(nis);
    PyMem_RawFree(edges);
    PyMem_RawFree(scratch);
    release_all(v);
    return NULL;
}

static PyObject *
points_rows(PyObject *self, PyObject *args)
{
    PyObject *muo, *sigmao, *pointso;
    Py_buffer v[MAX_VIEWS] = {{0}};
    double *mu, *sigma, *points, *scratch, scale;
    Py_ssize_t n;
    int bad;

    if (!PyArg_ParseTuple(args, "OOdO:points_rows", &muo, &sigmao, &scale, &pointso))
        return NULL;
    if (get_shaped(muo, &v[0], PyBUF_SIMPLE, 1, AT_LEAST(1), -1, "mu", &mu) < 0)
        goto fail;
    n = v[0].shape[0];
    if (get_shaped(sigmao, &v[1], PyBUF_SIMPLE, 2, n, n, "sigma", &sigma) < 0
        || get_shaped(pointso, &v[2], PyBUF_WRITABLE, 2, 2 * n + 1, n, "points", &points) < 0)
        goto fail;
    if (!(scratch = PyMem_RawMalloc(2 * n * n * sizeof(double)))) {
        PyErr_NoMemory();
        goto fail;
    }
    bad = sigma_points(mu, sigma, n, scale, scratch, scratch + n * n, points);
    PyMem_RawFree(scratch);
    release_all(v);
    return PyBool_FromLong(!bad);
fail:
    release_all(v);
    return NULL;
}

static PyObject *
ekf_assess_rows(PyObject *self, PyObject *args)
{
    PyObject *propo, *sigmao, *qo, *ho, *ro, *blocks, *yo, *covo, *so, *crosso, *nuo, *lo;
    Py_buffer v[MAX_VIEWS] = {{0}};
    double *prop, *sigma, *q, *h, *r, *y, *cov, *s, *cross, *nu, *l, *scratch, eps, nis;
    Py_ssize_t n, m, count, bad, *edges = NULL;

    if (!PyArg_ParseTuple(args, "OdOOOOOOOOOOO:ekf_assess_rows", &propo, &eps, &sigmao, &qo,
                          &ho, &ro, &blocks, &yo, &covo, &so, &crosso, &nuo, &lo))
        return NULL;
    if (get_shaped(propo, &v[0], PyBUF_SIMPLE, 2, -1, AT_LEAST(1), "prop", &prop) < 0)
        goto fail;
    n = v[0].shape[1];
    if (v[0].shape[0] != 2 * n + 1) {
        PyErr_SetString(PyExc_ValueError, "prop must be (2n + 1, n)");
        goto fail;
    }
    if (get_shaped(ho, &v[1], PyBUF_SIMPLE, 2, AT_LEAST(1), n, "h", &h) < 0)
        goto fail;
    m = v[1].shape[0];
    if (get_shaped(sigmao, &v[2], PyBUF_SIMPLE, 2, n, n, "sigma", &sigma) < 0
        || get_shaped(qo, &v[3], PyBUF_SIMPLE, 2, n, n, "q", &q) < 0
        || get_shaped(ro, &v[4], PyBUF_SIMPLE, 2, m, m, "r", &r) < 0
        || get_shaped(yo, &v[5], PyBUF_SIMPLE, 1, m, -1, "y", &y) < 0
        || get_shaped(covo, &v[6], PyBUF_WRITABLE, 2, n, n, "cov", &cov) < 0
        || get_shaped(so, &v[7], PyBUF_WRITABLE, 2, m, m, "s", &s) < 0
        || get_shaped(crosso, &v[8], PyBUF_WRITABLE, 2, n, m, "cross", &cross) < 0
        || get_shaped(nuo, &v[9], PyBUF_WRITABLE, 1, m, -1, "nu", &nu) < 0
        || get_shaped(lo, &v[10], PyBUF_WRITABLE, 2, m, m, "l", &l) < 0)
        goto fail;
    if (get_bounds(blocks, m, 4, "blocks", &edges, &count) < 0)
        goto fail;
    if (count && n < 4) {
        PyErr_SetString(PyExc_ValueError, "hemisphere blocks need n >= 4 states");
        goto fail;
    }
    /* ekf_pass, then y_hat, the aligned reading and L^-1 nu */
    if (!(scratch = PyMem_RawMalloc((2 * n * n + 3 * m) * sizeof(double)))) {
        PyErr_NoMemory();
        goto fail;
    }
    ekf_pass(prop, n, eps, sigma, q, h, m, r, cov, scratch + 2 * n * n, s, cross, scratch);
    innovation(y, scratch + 2 * n * n, m, prop, edges, count, scratch + 2 * n * n + m, nu);
    bad = factor(s, m, 0, m, l);
    nis = bad < 0 ? block_nis(l, m, 0, m, nu, scratch + 2 * n * n + 2 * m) : 0.0;
    PyMem_RawFree(scratch);
    PyMem_RawFree(edges);
    release_all(v);
    return bad < 0 ? PyFloat_FromDouble(nis) : not_positive_definite(bad);
fail:
    PyMem_RawFree(edges);
    release_all(v);
    return NULL;
}

static PyObject *
ukf_assess_rows(PyObject *self, PyObject *args)
{
    PyObject *propo, *wmo, *wco, *qo, *ho, *ro, *blocks, *yo, *meano, *covo, *pointso, *so;
    PyObject *sdeto, *crosso, *nuo;
    Py_buffer v[MAX_VIEWS] = {{0}};
    double *prop, *wm, *wc, *q, *h, *r, *y, *mean, *cov, *points, *s, *s_det, *cross, *nu;
    double *scratch, *a, *l, *set, *mean_set, *y_hat, *y_al, *l_det, *vv;
    double scale, r_det, nis;
    Sum *sums;
    Py_ssize_t n, m, rows, count, bad, i, size, *edges = NULL;

    if (!PyArg_ParseTuple(args, "OOOOdOOdOOOOOOOOO:ukf_assess_rows", &propo, &wmo, &wco, &qo,
                          &scale, &ho, &ro, &r_det, &blocks, &yo, &meano, &covo,
                          &pointso, &so, &sdeto, &crosso, &nuo))
        return NULL;
    if (get_shaped(meano, &v[0], PyBUF_WRITABLE, 1, AT_LEAST(1), -1, "mean", &mean) < 0)
        goto fail;
    n = v[0].shape[0];
    rows = 2 * n + 1;
    if (get_shaped(ho, &v[1], PyBUF_SIMPLE, 2, AT_LEAST(1), n, "h", &h) < 0)
        goto fail;
    m = v[1].shape[0];
    if (get_optional(propo, &v[2], PyBUF_SIMPLE, 2, rows, n, "prop", &prop) < 0
        || get_optional(pointso, &v[3], PyBUF_SIMPLE, 2, rows, n, "points", &points) < 0
        || get_shaped(wmo, &v[4], PyBUF_SIMPLE, 1, rows, -1, "wm", &wm) < 0
        || get_shaped(wco, &v[5], PyBUF_SIMPLE, 1, rows, -1, "wc", &wc) < 0
        || get_shaped(qo, &v[6], PyBUF_SIMPLE, 2, n, n, "q", &q) < 0
        || get_shaped(ro, &v[7], PyBUF_SIMPLE, 2, m, m, "r", &r) < 0
        || get_shaped(yo, &v[8], PyBUF_SIMPLE, 1, m, -1, "y", &y) < 0
        || get_shaped(covo, &v[9], PyBUF_WRITABLE, 2, n, n, "cov", &cov) < 0
        || get_shaped(so, &v[10], PyBUF_WRITABLE, 2, m, m, "s", &s) < 0
        || get_shaped(sdeto, &v[11], PyBUF_WRITABLE, 2, m, m, "s_det", &s_det) < 0
        || get_shaped(crosso, &v[12], PyBUF_WRITABLE, 2, n, m, "cross", &cross) < 0
        || get_shaped(nuo, &v[13], PyBUF_WRITABLE, 1, m, -1, "nu", &nu) < 0)
        goto fail;
    if (!prop == !points) {
        PyErr_SetString(PyExc_ValueError, "exactly one of prop and points is required");
        goto fail;
    }
    if (get_bounds(blocks, m, 4, "blocks", &edges, &count) < 0)
        goto fail;
    if (count && n < 4) {
        PyErr_SetString(PyExc_ValueError, "hemisphere blocks need n >= 4 states");
        goto fail;
    }
    /* moments's scratch, then a and l of the sigma set, the set, its mean,
     * y_hat, the aligned reading, L^-1 nu, the factor of S_det and the tail
     * of moments */
    size = MOMENTS_SCRATCH(rows, n, m, 1);
    scratch = PyMem_RawMalloc((size + 2 * n * n + rows * n + n + 3 * m + m * m) * sizeof(double)
                              + MOMENTS_TAIL(n, m, 1));
    if (!scratch) {
        PyErr_NoMemory();
        goto fail;
    }
    a = scratch + size;
    l = a + n * n;
    set = l + n * n;
    mean_set = set + rows * n;
    y_hat = mean_set + n;
    y_al = y_hat + m;
    vv = y_al + m;
    l_det = vv + m;
    sums = (Sum *)(l_det + m * m);
    if (prop) {
        moments(prop, rows, n, NULL, NULL, NULL, 0, wm, wc, q, NULL, 0, NULL, mean, cov, NULL,
                NULL, 0, NULL, scratch, sums);
        if (sigma_points(mean, cov, n, scale, a, l, set) < 0) {
            PyMem_RawFree(scratch);
            PyMem_RawFree(edges);
            release_all(v);
            Py_RETURN_NONE;
        }
        points = set;
    }
    /* C takes the deviations about the set's own mean; its covariance is
     * not needed */
    moments(points, rows, n, NULL, NULL, NULL, 0, wm, wc, NULL, h, m, r, mean_set, NULL, y_hat, s,
            0, cross, scratch, sums);
    for (i = 0; i < m * m; i++)
        s_det[i] = s[i] + r_det * r[i];
    innovation(y, y_hat, m, mean, edges, count, y_al, nu);
    bad = factor(s_det, m, 0, m, l_det);
    nis = bad < 0 ? block_nis(l_det, m, 0, m, nu, vv) : 0.0;
    PyMem_RawFree(scratch);
    PyMem_RawFree(edges);
    release_all(v);
    return bad < 0 ? PyFloat_FromDouble(nis) : not_positive_definite(bad);
fail:
    PyMem_RawFree(edges);
    release_all(v);
    return NULL;
}

static PyObject *
gauss_update_rows(PyObject *self, PyObject *args)
{
    PyObject *muo, *sigmao, *crosso, *so, *lo, *nuo, *rowso, *muouto, *sigmaouto;
    Py_buffer v[MAX_VIEWS] = {{0}};
    double *mu, *sigma, *cross, *s, *l, *nu, *mu_out, *sigma_out, *scratch = NULL;
    double *s_k, *cross_k, *nu_k, *l_k, *work;
    Py_ssize_t n, m, k, i, j, bad = -1, *idx = NULL;
    int quaternion;

    if (!PyArg_ParseTuple(args, "OOOOOOOpOO:gauss_update_rows", &muo, &sigmao, &crosso, &so, &lo,
                          &nuo, &rowso, &quaternion, &muouto, &sigmaouto))
        return NULL;
    if (get_shaped(muo, &v[0], PyBUF_SIMPLE, 1, AT_LEAST(1), -1, "mu", &mu) < 0
        || get_shaped(so, &v[1], PyBUF_SIMPLE, 2, AT_LEAST(1), -1, "s", &s) < 0)
        goto fail;
    if (v[1].shape[1] != v[1].shape[0]) {
        PyErr_SetString(PyExc_ValueError, "s must be a square matrix");
        goto fail;
    }
    n = v[0].shape[0];
    m = v[1].shape[0];
    if (get_shaped(sigmao, &v[2], PyBUF_SIMPLE, 2, n, n, "sigma", &sigma) < 0
        || get_shaped(crosso, &v[3], PyBUF_SIMPLE, 2, n, m, "cross", &cross) < 0
        || get_optional(lo, &v[4], PyBUF_SIMPLE, 2, m, m, "l", &l) < 0
        || get_shaped(nuo, &v[5], PyBUF_SIMPLE, 1, m, -1, "nu", &nu) < 0
        || get_shaped(muouto, &v[6], PyBUF_WRITABLE, 1, n, -1, "mu_out", &mu_out) < 0
        || get_shaped(sigmaouto, &v[7], PyBUF_WRITABLE, 2, n, n, "sigma_out", &sigma_out) < 0)
        goto fail;
    if (quaternion && n < 4) {
        PyErr_SetString(PyExc_ValueError, "a quaternion needs n >= 4 states");
        goto fail;
    }
    k = m;
    if (rowso != Py_None && get_bounds(rowso, m, INDICES, "rows", &idx, &k) < 0)
        goto fail;
    /* S, L, C and nu on the rows, then update's W and v (one double more,
     * so that no rows still allocates) */
    if (!(scratch = PyMem_RawMalloc((2 * k * k + 2 * n * k + 2 * k + 1) * sizeof(double)))) {
        PyErr_NoMemory();
        goto fail;
    }
    s_k = scratch;
    l_k = s_k + k * k;
    cross_k = l_k + k * k;
    nu_k = cross_k + n * k;
    work = nu_k + k;
    if (rowso != Py_None) {
        for (i = 0; i < k; i++) {
            for (j = 0; j < k; j++)
                s_k[i * k + j] = s[idx[i] * m + idx[j]];
            nu_k[i] = nu[idx[i]];
        }
        for (i = 0; i < n; i++)
            for (j = 0; j < k; j++)
                cross_k[i * k + j] = cross[i * m + idx[j]];
        s = s_k;
        cross = cross_k;
        nu = nu_k;
        l = NULL;
    }
    if (!k) {
        memcpy(mu_out, mu, n * sizeof(double));
        memcpy(sigma_out, sigma, n * n * sizeof(double));
    } else {
        if (!l) {
            l = l_k;
            bad = factor(s, k, 0, k, l);
        }
        if (bad < 0)
            update(mu, sigma, n, cross, l, k, nu, mu_out, sigma_out, work);
    }
    if (bad < 0 && quaternion) {
        double norm = sqrt(mu_out[0] * mu_out[0] + mu_out[1] * mu_out[1]
                           + mu_out[2] * mu_out[2] + mu_out[3] * mu_out[3]);

        for (j = 0; j < 4; j++)
            mu_out[j] = mu_out[j] / norm;
    }
    PyMem_RawFree(scratch);
    PyMem_RawFree(idx);
    release_all(v);
    if (bad >= 0)
        return not_positive_definite(bad);
    Py_RETURN_NONE;
fail:
    PyMem_RawFree(scratch);
    PyMem_RawFree(idx);
    release_all(v);
    return NULL;
}

/* Room for one '%.9g' text, whose widest is 16 characters: a sign, nine
 * digits, the point and "e-308". */
#define CSV_FIELD 24

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

#define E19 10000000000000000000ULL
static const u128 POW10[23] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL, 1000000000000ULL,
    10000000000000ULL, 100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL, E19, (u128)E19 * 10,
    (u128)E19 * 100, (u128)E19 * 1000,
};

/* Write '%.9g' of v to out as PyOS_double_to_string(v, 'g', 9, 0) does and
 * return its length, for v = +-0 and for 1e-14 < |v| < 1e9; return 0,
 * writing nothing, for any other v. (The double 1e-14 lies just below
 * 10^-14, so the range is the real interval [10^-14, 10^9).)
 *
 * In that range |v| = m / 2^s exactly, with m < 2^53 and 23 <= s <= 99. The
 * nine digits are N = m 10^j / 2^s for the j in [0, 22] that puts N in
 * [1e8, 1e9); m 10^j < 2^53 10^22 < 2^127 fits a u128. N is rounded half to
 * even by comparing the remainder with 2^(s - 1) exactly, the correct
 * rounding dtoa gives; a round-up to 1e9 carries into the decimal exponent
 * X = 8 - j. The text is then %g's: fixed notation for -4 <= X <= 8, else
 * d.dddde-XX (or 1e+09), trailing zeros stripped. */
static int
g9(double v, char *out)
{
    uint64_t bits, m, n;
    u128 p, rem, half;
    int b, s, x, j, k, last, len = 0;
    char d[9];

    memcpy(&bits, &v, sizeof bits);
    if ((bits << 1) && !(fabs(v) > 1e-14 && fabs(v) < 1e9))
        return 0;
    if (bits >> 63)
        out[len++] = '-';
    if (!(bits << 1)) {
        out[len++] = '0';
        return len;
    }
    b = (int)((bits >> 52) & 0x7ff) - 1023;
    m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    s = 52 - b;
    /* floor(b log10 2), so |v| in [2^b, 2^(b + 1)) has X = x or x + 1 */
    x = b >= 0 ? (b * 78913) >> 18 : -((-b * 78913 + 262143) >> 18);
    j = x < 7 ? 7 - x : 0;
    p = (u128)m * POW10[j];
    if ((p >> s) < 100000000) {
        p *= 10;
        j++;
    }
    n = (uint64_t)(p >> s);
    rem = p & (((u128)1 << s) - 1);
    half = (u128)1 << (s - 1);
    if (rem > half || (rem == half && (n & 1)))
        n++;
    x = 8 - j;
    if (n == 1000000000) {
        n = 100000000;
        x++;
    }
    for (k = 8; k >= 0; k--, n /= 10)
        d[k] = (char)('0' + n % 10);
    for (last = 8; d[last] == '0'; last--)
        ;
    if (x < -4 || x > 8) {
        /* here -15 < x < -4 or x == 9: two exponent digits */
        out[len++] = d[0];
        if (last > 0) {
            out[len++] = '.';
            memcpy(out + len, d + 1, last);
            len += last;
        }
        out[len++] = 'e';
        out[len++] = x < 0 ? '-' : '+';
        x = abs(x);
        out[len++] = (char)('0' + x / 10);
        out[len++] = (char)('0' + x % 10);
    }
    else if (x >= 0) {
        memcpy(out + len, d, x + 1);
        len += x + 1;
        if (last > x) {
            out[len++] = '.';
            memcpy(out + len, d + x + 1, last - x);
            len += last - x;
        }
    }
    else {
        out[len++] = '0';
        out[len++] = '.';
        memset(out + len, '0', -x - 1);
        len += -x - 1;
        memcpy(out + len, d, last + 1);
        len += last + 1;
    }
    return len;
}
#else
static int
g9(double v, char *out)
{
    (void)v;
    (void)out;
    return 0;
}
#endif

static PyObject *
csv_rows(PyObject *self, PyObject *args)
{
    PyObject *blocko, *text = NULL;
    Py_buffer v[MAX_VIEWS] = {{0}};
    double *x;
    char *buf, *p;
    Py_ssize_t rows, cols, i, len;

    if (!PyArg_ParseTuple(args, "O:csv_rows", &blocko))
        return NULL;
    if (get_shaped(blocko, &v[0], PyBUF_SIMPLE, 2, -1, AT_LEAST(1), "block", &x) < 0)
        goto fail;
    rows = v[0].shape[0];
    cols = v[0].shape[1];
    if (!(buf = PyMem_Malloc(rows * cols * (CSV_FIELD + 1) + rows + 1))) {
        PyErr_NoMemory();
        goto fail;
    }
    p = buf;
    for (i = 0; i < rows * cols; i++) {
        if (!(len = g9(x[i], p))) {
            /* the routine Python's own '%.9g' % value calls */
            char *s = PyOS_double_to_string(x[i], 'g', 9, 0, NULL);

            if (!s) {
                PyMem_Free(buf);
                goto fail;
            }
            len = (Py_ssize_t)strlen(s);
            if (len > CSV_FIELD) {
                PyMem_Free(s);
                PyMem_Free(buf);
                PyErr_SetString(PyExc_SystemError, "a formatted value overflows its field");
                goto fail;
            }
            memcpy(p, s, len);
            PyMem_Free(s);
        }
        p += len;
        if ((i + 1) % cols)
            *p++ = ',';
        else {
            *p++ = '\r';
            *p++ = '\n';
        }
    }
    text = PyUnicode_DecodeASCII(buf, p - buf, NULL);
    PyMem_Free(buf);
fail:
    release_all(v);
    return text;
}

/* numpy/random/bitgen.h's bitgen_t, redeclared so that the build needs no
 * numpy headers: a numpy BitGenerator's state and its draws, which its
 * capsule named "BitGenerator" points to. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* The rare end of numpy's random_standard_normal, for the draw rabs of
 * layer idx that fell outside the layer's box, with x its signed value: in
 * layer 0 the tail beyond r, whose sign is bit 8 of rabs; in any other, the
 * wedge test of x against the density. Returns 1 with the accepted normal
 * in *x, 0 when the caller draws again. */
static int
ziggurat_edge(bitgen_t *bg, uint64_t rabs, int idx, double *x)
{
    double v = *x;

    if (idx == 0)
        for (;;) {
            /* 1 - U, so that log never sees 0 */
            double xx = -ZIGGURAT_NOR_INV_R * log1p(-bg->next_double(bg->state));
            double yy = -log1p(-bg->next_double(bg->state));

            if (yy + yy > xx * xx) {
                *x = ((rabs >> 8) & 0x1) ? -(ZIGGURAT_NOR_R + xx) : ZIGGURAT_NOR_R + xx;
                return 1;
            }
        }
    return (fi_double[idx - 1] - fi_double[idx]) * bg->next_double(bg->state) + fi_double[idx]
           < exp(-0.5 * v * v);
}

/* count standard normals into out by numpy's ziggurat (Marsaglia & Tsang,
 * J. Stat. Softw. 5(8), 2000, as numpy's random_standard_normal runs it):
 * the same draws through bg, in the same order, with the same tables and
 * arithmetic, so the same bits and the same generator state after. Bit 8
 * of the draw is XORed into the sign bit, where numpy branches on it. */
static void
ziggurat_fill(bitgen_t *bg, double *out, Py_ssize_t count)
{
    uint64_t (*next_uint64)(void *) = bg->next_uint64;
    void *state = bg->state;
    Py_ssize_t i;

    for (i = 0; i < count; i++) {
        union { double d; uint64_t u; } x;

        for (;;) {
            uint64_t r = next_uint64(state);
            int idx = (int)(r & 0xff);
            uint64_t rabs = (r >> 9) & 0x000fffffffffffffULL;

            x.d = (double)rabs * wi_double[idx];
            x.u ^= (r & 0x100) << 55;
            if (rabs < ki_double[idx] || ziggurat_edge(bg, rabs, idx, &x.d))
                break;
        }
        out[i] = x.d;
    }
}

/* The attribute and method names a draw looks up, interned once when the
 * module loads: a name made afresh on each call would be a new string each
 * time, which the type attribute cache keeps a reference to. */
static PyObject *s_bit_generator, *s_capsule, *s_lock, *s_acquire, *s_release;

/* A draw of count standard normals into the float64 array out through the
 * bit generator bg. While lock is not NULL the draw holds the bit
 * generator's lock, as Generator.standard_normal does, and, when posted to
 * the worker, may still be being written. settle awaits the rest and
 * releases the lock; every path out of a draw's life settles it, so no
 * thread writes into an array that is gone. One thread at a time uses a
 * draw: the one that steps the particle filter that made it. */
struct Draw {
    PyObject_HEAD
    Py_buffer view;   /* out */
    PyObject *owner;  /* the bit generator, which bg lives in */
    PyObject *lock;
    bitgen_t *bg;
    Py_ssize_t count;
    char worker;      /* posted to the worker */
};

static PyTypeObject draw_type;

/* The posted draw, from its post until it is settled; only threads that
 * hold the GIL read or write it. */
static Draw *posted;

#ifdef WORKER
/* The worker: one thread, created at the first draw that may use it, which
 * writes the draws posted to it, one at a time, by the same ziggurat_fill
 * over the same bitgen_t, chunk by chunk. It never touches the Python API:
 * the thread that posted a draw holds the bit generator's lock for it and
 * settles it. A draw that finds a posted draw unsettled or the worker busy
 * runs inline, and so does every draw when the affinity mask of the thread
 * that first draws holds fewer than two CPUs.
 *
 * A post fills the one slot (the draw's bit generator, array, size and
 * chunk, with claim and done at 0) and sets busy; the worker clears busy
 * when it lets the slot go. No post refills the slot before the last draw
 * is settled and busy is clear, so claim and done count one draw's normals
 * for as long as any thread reads them. The worker reads only the slot, and
 * writes into the draw's array only under a claim, which the draw outlives.
 *
 * The worker claims each chunk before it writes it, by raising claim from
 * the end of the last chunk written. A thread awaiting the draw that sees
 * no chunk written for STALL_NS claims the rest the same way, when the
 * worker holds no chunk, and writes it itself: a worker that is asleep or
 * descheduled costs the draw a short wait, not the worker's absence. The
 * bits are the same, since each chunk is written by one thread after the
 * one before, in order.
 *
 * Between draws the worker spins on pause for SPIN_NS by the monotonic
 * clock, longer than the particle filter's gap between two draws, then
 * sleeps on idle_cond until a post wakes it. A worker that finds itself on
 * the last poster's CPU narrows its own affinity mask to the process's
 * other CPUs (avoid_poster); the poster's mask is never changed. A fork
 * waits for the worker to let the slot go (the prepare handler); the child
 * has no worker and starts its own at its first draw. */
#define SPIN_NS 1000000
#define STALL_NS 20000
#define WORKER_STACK (64 * 1024)

static struct {
    bitgen_t *bg;
    double *out;
    Py_ssize_t count, chunk;
    Py_ssize_t claim, done;  /* the normals claimed, and written */
} slot;
static int busy;
static int worker_state;  /* 0: not started, 1: running, -1: every draw inline */
static int poster_cpu = -1;  /* the CPU of the last post */
static cpu_set_t worker_cpus;  /* the process's CPUs when the worker started */
static int sleeping, atfork_set;
static pthread_mutex_t idle_mutex = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t idle_cond = PTHREAD_COND_INITIALIZER;

static long long
now_ns(void)
{
    struct timespec t;

    clock_gettime(CLOCK_MONOTONIC, &t);
    return t.tv_sec * 1000000000LL + t.tv_nsec;
}

/* Claim the slot's normals [from, to): 1 when no other thread has claimed
 * past from. */
static int
take(Py_ssize_t from, Py_ssize_t to)
{
    return __atomic_compare_exchange_n(&slot.claim, &from, to, 0, __ATOMIC_ACQ_REL,
                                       __ATOMIC_ACQUIRE);
}

static void
await_draw(Py_ssize_t upto)
{
    Py_ssize_t seen = -1, k = 0, count = slot.count;
    long long since = 0, t;
    int i;

    for (;;) {
        for (i = 0; i < 64; i++) {
            if ((k = __atomic_load_n(&slot.done, __ATOMIC_ACQUIRE)) >= upto)
                return;
            CPU_RELAX();
        }
        t = now_ns();
        if (k != seen) {
            seen = k;
            since = t;
        } else if (t - since >= STALL_NS) {
            if (take(k, count)) {
                ziggurat_fill(slot.bg, slot.out + k, count - k);
                __atomic_store_n(&slot.done, count, __ATOMIC_RELEASE);
                return;
            }
            sched_yield();  /* the worker holds a chunk: let it run if it is here */
        }
    }
}

/* A worker on the poster's CPU would take the poster's time, and the
 * scheduler may keep the two there: move to the process's other CPUs. */
static void
avoid_poster(void)
{
    int cpu = sched_getcpu();
    cpu_set_t away = worker_cpus;

    if (cpu >= 0 && cpu == __atomic_load_n(&poster_cpu, __ATOMIC_RELAXED)) {
        CPU_CLR(cpu, &away);
        sched_setaffinity(0, sizeof away, &away);
    }
}

static void
await_post(void)
{
    long long t0 = now_ns();
    int i;

    do {
        for (i = 0; i < 64; i++) {
            if (__atomic_load_n(&busy, __ATOMIC_ACQUIRE))
                return;
            CPU_RELAX();
        }
        avoid_poster();
    } while (now_ns() - t0 < SPIN_NS);
    pthread_mutex_lock(&idle_mutex);
    while (!__atomic_load_n(&busy, __ATOMIC_ACQUIRE)) {
        sleeping = 1;
        pthread_cond_wait(&idle_cond, &idle_mutex);
    }
    sleeping = 0;
    pthread_mutex_unlock(&idle_mutex);
}

static void *
work(void *unused)
{
    for (;;) {
        Py_ssize_t count, chunk, k, next;

        await_post();
        count = slot.count;
        chunk = slot.chunk;
        for (k = 0; k < count && take(k, next = k + chunk < count ? k + chunk : count); k = next) {
            ziggurat_fill(slot.bg, slot.out + k, next - k);
            __atomic_store_n(&slot.done, next, __ATOMIC_RELEASE);
        }
        __atomic_store_n(&busy, 0, __ATOMIC_RELEASE);
    }
    return unused;
}

static void
fork_prepare(void)
{
    if (worker_state > 0)
        while (__atomic_load_n(&busy, __ATOMIC_ACQUIRE))
            CPU_RELAX();
    pthread_mutex_lock(&idle_mutex);
}

static void
fork_parent(void)
{
    pthread_mutex_unlock(&idle_mutex);
}

static void
fork_child(void)
{
    pthread_mutex_init(&idle_mutex, NULL);
    pthread_cond_init(&idle_cond, NULL);
    sleeping = 0;
    worker_state = 0;
}

static void
start_worker(void)
{
    sigset_t all, old;
    pthread_attr_t attr;
    pthread_t thread;

    worker_state = -1;
    if (sched_getaffinity(0, sizeof worker_cpus, &worker_cpus) != 0
        || CPU_COUNT(&worker_cpus) < 2)
        return;
    if (!atfork_set && pthread_atfork(fork_prepare, fork_parent, fork_child) != 0)
        return;
    atfork_set = 1;
    if (pthread_attr_init(&attr) != 0)
        return;
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    pthread_attr_setstacksize(&attr, WORKER_STACK);
    /* signals go to the Python threads, whose handlers run on the main one */
    sigfillset(&all);
    pthread_sigmask(SIG_BLOCK, &all, &old);
    if (pthread_create(&thread, &attr, work, NULL) == 0)
        worker_state = 1;
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    pthread_attr_destroy(&attr);
}

/* Post d to the worker: 1, or 0 when it must run inline. */
static int
post(Draw *d)
{
    if (posted)
        return 0;
    if (!worker_state)
        start_worker();
    if (worker_state < 0 || __atomic_load_n(&busy, __ATOMIC_ACQUIRE))
        return 0;
    slot.bg = d->bg;
    slot.out = d->view.buf;
    slot.count = d->count;
    slot.chunk = BLOCK * (d->view.ndim && d->view.shape[d->view.ndim - 1]
                          ? d->view.shape[d->view.ndim - 1] : 1);
    __atomic_store_n(&slot.claim, 0, __ATOMIC_RELAXED);
    __atomic_store_n(&slot.done, 0, __ATOMIC_RELAXED);
    posted = d;
    __atomic_store_n(&poster_cpu, sched_getcpu(), __ATOMIC_RELAXED);
    __atomic_store_n(&busy, 1, __ATOMIC_RELEASE);
    pthread_mutex_lock(&idle_mutex);
    if (sleeping)
        pthread_cond_signal(&idle_cond);
    pthread_mutex_unlock(&idle_mutex);
    return 1;
}
#else
static void
await_draw(Py_ssize_t upto)
{
}

static int
post(Draw *d)
{
    return 0;
}
#endif

static int
settle(Draw *d)
{
    PyObject *lock = d->lock, *res;

    if (!lock)
        return 0;
    if (d->worker) {
        Py_BEGIN_ALLOW_THREADS
        await_draw(d->count);
        Py_END_ALLOW_THREADS
        posted = NULL;
    }
    d->lock = NULL;
    res = PyObject_CallMethodObjArgs(lock, s_release, NULL);
    Py_DECREF(lock);
    Py_XDECREF(res);
    return res ? 0 : -1;
}

/* A new draw of rng's normals into out, posted to the worker when
 * on_worker and the worker is free, else written before it returns. */
static PyObject *
start_draw(PyObject *args, const char *format, int on_worker)
{
    PyObject *rng, *outo, *capsule, *res;
    Draw *d;
    double *out;

    if (!PyArg_ParseTuple(args, format, &rng, &outo) || !(d = PyObject_New(Draw, &draw_type)))
        return NULL;
    d->view.obj = NULL;
    d->owner = d->lock = NULL;
    d->worker = 0;
    if (get_shaped(outo, &d->view, PyBUF_WRITABLE, ANY_RANK, -1, -1, "out", &out) < 0)
        goto fail;
    d->count = d->view.len / (Py_ssize_t)sizeof(double);
    if (!(d->owner = PyObject_GetAttr(rng, s_bit_generator))
        || !(capsule = PyObject_GetAttr(d->owner, s_capsule)))
        goto fail;
    d->bg = PyCapsule_GetPointer(capsule, "BitGenerator");
    Py_DECREF(capsule);
    if (!d->bg || !(d->lock = PyObject_GetAttr(d->owner, s_lock)))
        goto fail;
    if (!(res = PyObject_CallMethodObjArgs(d->lock, s_acquire, NULL))) {
        Py_CLEAR(d->lock);
        goto fail;
    }
    Py_DECREF(res);
    if (d->count && on_worker && post(d)) {
        d->worker = 1;
        return (PyObject *)d;
    }
    /* as Generator.standard_normal: the generator's lock held, the GIL not */
    Py_BEGIN_ALLOW_THREADS
    ziggurat_fill(d->bg, out, d->count);
    Py_END_ALLOW_THREADS
    if (settle(d) == 0)
        return (PyObject *)d;
fail:
    Py_DECREF(d);
    return NULL;
}

static void
draw_dealloc(Draw *d)
{
    PyObject *type, *value, *tb;

    if (d->lock) {
        PyErr_Fetch(&type, &value, &tb);
        if (settle(d) < 0)
            PyErr_WriteUnraisable(NULL);
        PyErr_Restore(type, value, tb);
    }
    PyBuffer_Release(&d->view);
    Py_XDECREF(d->owner);
    PyObject_Free(d);
}

static PyObject *
draw_wait(Draw *d, PyObject *unused)
{
    if (settle(d) < 0)
        return NULL;
    Py_INCREF(d->view.obj);
    return d->view.obj;
}

static PyMethodDef draw_methods[] = {
    {"wait", (PyCFunction)draw_wait, METH_NOARGS,
     "wait()\n--\n\n"
     "Wait until the draw is written, release the generator's lock, and return\n"
     "the array."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject draw_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "attbench.core._kernels_c.Draw",
    .tp_basicsize = sizeof(Draw),
    .tp_dealloc = (destructor)draw_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A draw of normals that draw_rows started; moments_rows takes it as normals.",
    .tp_methods = draw_methods,
};

/* moments_rows's normals: a Draw gives its array, and *pending the draw
 * while it may still be being written. */
static PyObject *
draw_array(PyObject *normals, Draw **pending)
{
    Draw *d = (Draw *)normals;

    *pending = NULL;
    if (!Py_IS_TYPE(normals, &draw_type))
        return normals;
    if (d->lock && d->worker)
        *pending = d;
    return d->view.obj;
}

/* Settle moments_rows's normals when they are a Draw; after a failure
 * (failed), the exception already set stays set. */
static int
settle_normals(PyObject *normals, int failed)
{
    PyObject *type, *value, *tb;

    if (!Py_IS_TYPE(normals, &draw_type))
        return 0;
    if (!failed)
        return settle((Draw *)normals);
    PyErr_Fetch(&type, &value, &tb);
    settle((Draw *)normals);
    PyErr_Restore(type, value, tb);
    return -1;
}

static PyObject *
draw_rows(PyObject *self, PyObject *args)
{
    return start_draw(args, "OO:draw_rows", 1);
}

static PyObject *
normal_rows(PyObject *self, PyObject *args)
{
    PyObject *d = start_draw(args, "OO:normal_rows", 0);

    if (!d)
        return NULL;
    Py_DECREF(d);
    Py_RETURN_NONE;
}

/* Systematic resampling of the n rows of d doubles at x into out: row i of
 * out is row j of x, the first j whose cumulative weight w[0] + ... + w[j],
 * summed in order, is above ((double)i + u) / n in numpy's order (NaN
 * last), or n - 1 when none is. The positions rise with i and the sums
 * with j, so one merge walk finds every j. */
static void
resample(const double *x, Py_ssize_t n, Py_ssize_t d, const double *w, double u, double *out)
{
    Py_ssize_t i, j = 0;
    double cum = n ? w[0] : 0.0;

    for (i = 0; i < n; i++) {
        double pos = ((double)i + u) / (double)n;

        while (j < n - 1 && !(pos < cum || (cum != cum && pos == pos)))
            cum = cum + w[++j];
        memcpy(out + i * d, x + j * d, d * sizeof(double));
    }
}

static PyObject *
resample_rows(PyObject *self, PyObject *args)
{
    PyObject *xo, *wo, *outo;
    Py_buffer v[MAX_VIEWS] = {{0}};
    double *x, *w, *out, u;
    Py_ssize_t n, d, i;

    if (!PyArg_ParseTuple(args, "OOdO:resample_rows", &xo, &wo, &u, &outo))
        return NULL;
    if (get_shaped(xo, &v[0], PyBUF_SIMPLE, 2, -1, -1, "x", &x) < 0)
        goto fail;
    n = v[0].shape[0];
    d = v[0].shape[1];
    if (get_shaped(wo, &v[1], PyBUF_SIMPLE, 1, n, -1, "w", &w) < 0
        || get_shaped(outo, &v[2], PyBUF_WRITABLE, 2, n, d, "out", &out) < 0)
        goto fail;
    for (i = 0; i < n; i++)
        if (w[i] < 0.0) {
            PyErr_SetString(PyExc_ValueError, "weights must not be negative");
            goto fail;
        }
    Py_BEGIN_ALLOW_THREADS
    resample(x, n, d, w, u, out);
    Py_END_ALLOW_THREADS
    release_all(v);
    Py_RETURN_NONE;
fail:
    release_all(v);
    return NULL;
}

static PyMethodDef methods[] = {
    {"step_rows", step_rows, METH_VARARGS,
     "step_rows(out, dt, ixx, iyy, izz, frames)\n--\n\n"
     "Advance the (M, n) float64 rows of out by one RK4 step, in place."},
    {"moments_rows", moments_rows, METH_VARARGS,
     "moments_rows(x, normals, root, h, w, r, quaternion, mean, y_hat, s)\n--\n\n"
     "Jitter and renormalize the particle rows of x in place; write their\n"
     "weighted mean, measurement mean and measurement covariance."},
    {"loglik_rows", loglik_rows, METH_VARARGS,
     "loglik_rows(x, h, l, y, out)\n--\n\n"
     "Write each particle's Gaussian log-likelihood of y, up to a constant."},
    {"weigh_rows", weigh_rows, METH_VARARGS,
     "weigh_rows(loglik, w, x, limit, out, mean, var)\n--\n\n"
     "Write the particle weights w exp(loglik - max), normalized; unless their ESS\n"
     "is below limit, write the cloud's weighted mean and marginal variance.\n"
     "Return (reset, resample)."},
    {"factor_rows", factor_rows, METH_VARARGS,
     "factor_rows(a, bounds, nu, l)\n--\n\n"
     "Cholesky-factor each diagonal block of a into l; return each block's NIS."},
    {"points_rows", points_rows, METH_VARARGS,
     "points_rows(mu, sigma, scale, points)\n--\n\n"
     "Write the sigma set mu, mu +- the columns of chol(scale sigma); False when\n"
     "scale sigma is not positive definite."},
    {"ekf_assess_rows", ekf_assess_rows, METH_VARARGS,
     "ekf_assess_rows(prop, eps, sigma, q, h, r, blocks, y, cov, s, cross, nu, l)\n--\n\n"
     "Write the EKF's predicted covariance, measurement moments, innovation and\n"
     "the Cholesky factor of S; return the NIS."},
    {"ukf_assess_rows", ukf_assess_rows, METH_VARARGS,
     "ukf_assess_rows(prop, wm, wc, q, scale, h, r, r_det, blocks, y, mean, cov, points, s,\n"
     "                s_det, cross, nu)\n--\n\n"
     "Write the UKF's predicted moments, measurement moments about the regenerated\n"
     "sigma set and innovation; return the NIS of S_det, or None when the set\n"
     "cannot be regenerated by Cholesky."},
    {"gauss_update_rows", gauss_update_rows, METH_VARARGS,
     "gauss_update_rows(mu, sigma, cross, s, l, nu, rows, quaternion, mu_out, sigma_out)\n"
     "--\n\n"
     "Write the Kalman update on the listed rows, renormalizing the quaternion."},
    {"csv_rows", csv_rows, METH_VARARGS,
     "csv_rows(block)\n--\n\n"
     "Format the rows of a float64 block as CSV text, each value as '%.9g' % value."},
    {"draw_rows", draw_rows, METH_VARARGS,
     "draw_rows(rng, out)\n--\n\n"
     "Start normal_rows's draw of rng's normals into out on the worker thread, or\n"
     "draw them inline; return the draw, which moments_rows takes as its normals."},
    {"normal_rows", normal_rows, METH_VARARGS,
     "normal_rows(rng, out)\n--\n\n"
     "Fill the float64 array out with rng.standard_normal's draws, bit for bit."},
    {"resample_rows", resample_rows, METH_VARARGS,
     "resample_rows(x, w, u, out)\n--\n\n"
     "Write the rows of x that systematic resampling by the weights w and the\n"
     "offset u picks into out."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernels_c",
    .m_doc = "Compiled rigid-body RK4, particle-cloud, moment, Cholesky, Gaussian-step "
              "and CSV kernels.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernels_c(void)
{
    if (!(s_bit_generator = PyUnicode_InternFromString("bit_generator"))
        || !(s_capsule = PyUnicode_InternFromString("capsule"))
        || !(s_lock = PyUnicode_InternFromString("lock"))
        || !(s_acquire = PyUnicode_InternFromString("acquire"))
        || !(s_release = PyUnicode_InternFromString("release"))
        || PyType_Ready(&draw_type) < 0)
        return NULL;
    return PyModule_Create(&module);
}
