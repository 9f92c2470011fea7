"""Numpy fallback for the compiled kernels, entry for entry: each public
``*_rows`` function here is the ``_kernels_c`` entry of the same name and
parameters. ``step_rows`` is the batched rigid-body RK4 step,
``moments_rows`` and ``loglik_rows`` the particle filter's two cloud
passes and ``weigh_rows`` its weight pass (``fixed_exp``, the
normalization, the ESS and the posterior moments), ``factor_rows`` the
Kalman step's Cholesky factor and NIS, and ``points_rows``,
``ekf_assess_rows``, ``ukf_assess_rows`` and ``gauss_update_rows`` the
Gaussian step's fused passes, built from the private ``_sigma_rows``,
``_ekf_rows`` and ``_update_rows`` in the order the compiled passes run
them, ``csv_rows`` the CSV export's formatting, ``normal_rows`` numpy's
standard normal draws, ``draw_rows`` the same draw handed to
``moments_rows`` as a ``Draw``, and ``resample_rows`` the particle filter's
systematic resampling (``systematic_index``) and gather. ``_sigma_rows`` is
the one weighted-moments body: ``moments_rows`` calls it after the jitter,
``ukf_assess_rows`` for both of its moment steps and ``weigh_rows`` (through
``moments_rows``) for the posterior moments. ``attbench.core``, not this
module, is the kernel API. Each entry takes its buffers through ``_buffer``
and its tuples of bounds or rows through ``_bounds``, in the compiled
entry's order, so both backends refuse the same argument with the same
message.

Operation order mirrors the compiled kernel expression for expression so
both backends produce bit-identical results (the extension is built with FP
contraction disabled for the same reason).

In the particle-filter and moment passes every sum has a fixed order. A sum
over the particles or points runs from row 0 through ``fixed_sum``,
``np.add.accumulate`` along the summed axis, which is sequential by
definition. A product with a small matrix (the jitter root, H, L, the EKF's
Jacobian) sums over its columns from column 0, starting from -0.0 (which
leaves the first term unchanged) and skipping the terms whose coefficient
is exactly zero, so a 0/1 selection row costs one term; where the fallback
sums whole arrays of terms, a skipped term becomes -0.0, which no sum
notices. Nothing here uses ``@``, ``np.sum`` (pairwise) or ``einsum``, and
the weight pass's exp is ``fixed_exp``, not ``np.exp``, whose bits depend on
the loop numpy dispatches for the CPU.

The Cholesky layer (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, ch. 10) works on Python floats, whose +, -, *, / and
``math.sqrt`` are the correctly rounded IEEE operations C uses. Its sums
run over the columns in order and skip no terms, and it divides by each
pivot rather than multiplying by a reciprocal.
"""

import math

import numpy as np


# The ranks and dimensions of the compiled get_shaped: a dimension d >= 0
# fits a size of d alone, _at_least(k) every size >= k (so -1 any size).
RANK_1_OR_2, ANY_RANK = 0, -1


def _at_least(k):
    return -1 - k


def _fits(size, d):
    return size == d if d >= 0 else size >= -1 - d


def _buffer(a, name, ndim, d0=-1, d1=-1, writable=False, optional=False):
    """The buffer ``name`` by the compiled ``get_shaped``'s rules, in its
    order, else a ValueError naming it: given (or None when ``optional``),
    a C-contiguous float64 ndarray or other buffer, ``writable``, of rank
    ``ndim``, and first and second dimensions that fit d0 and d1."""
    if a is None:
        if optional:
            return None
        raise ValueError("%s is required" % name)
    try:
        a = a if isinstance(a, np.ndarray) else np.asarray(memoryview(a))
        fits = a.dtype == np.float64 and a.flags.c_contiguous
    except Exception:  # as in C, any failure to view the buffer refuses it
        fits = False
    if not fits:
        raise ValueError("%s must be a C-contiguous float64 array" % name)
    if writable and not a.flags.writeable:
        raise ValueError("%s must be writable" % name)
    if ((a.ndim != ndim if ndim > 0 else ndim == RANK_1_OR_2 and a.ndim not in (1, 2))
            or (a.ndim >= 1 and not _fits(a.shape[0], d0))
            or (a.ndim >= 2 and not _fits(a.shape[1], d1))):
        raise ValueError("%s has the wrong shape" % name)
    return a


INDICES = -1  # the width that asks _bounds for row indices, not pairs


def _bounds(bounds, m, width, name):
    """The tuple ``bounds`` by the compiled ``get_bounds``'s rules: flat
    (start, stop) pairs, 0 <= start < stop <= m, of ``width`` rows when it
    is > 0, or ``INDICES`` 0 <= i < m. Else a ValueError naming it, or a
    TypeError for a non-tuple or an edge that is not an int."""
    if not isinstance(bounds, tuple):
        raise TypeError("%s must be a tuple" % name)
    if width != INDICES and len(bounds) % 2:
        raise ValueError("%s must hold (start, stop) pairs" % name)
    for i, e in enumerate(bounds):
        if not isinstance(e, int):
            raise TypeError("an integer is required")
        if width == INDICES:
            if not 0 <= e < m:
                raise ValueError("%s must be indices in [0, m)" % name)
        elif not 0 <= e <= m or i % 2 and (e <= bounds[i - 1]
                                           or 0 < width != e - bounds[i - 1]):
            raise ValueError("%s must be blocks of %d rows inside the %d" % (name, width, m)
                             if width else "%s must be 0 <= start < stop <= m" % name)
    return bounds


def _rates(q0, q1, q2, q3, wx, wy, wz, ixx, iyy, izz, frame=None):
    tx = ty = tz = 0.0
    if frame is not None:
        # gravity-gradient torque: c = DCM(q) u, the radial unit vector in
        # body axes, entries as in attitude.quat_to_dcm
        ux, uy, uz, g = frame
        c0 = ((1.0 - 2.0 * (q2 * q2 + q3 * q3)) * ux
              + (2.0 * (q1 * q2 + q0 * q3)) * uy
              + (2.0 * (q1 * q3 - q0 * q2)) * uz)
        c1 = ((2.0 * (q1 * q2 - q0 * q3)) * ux
              + (1.0 - 2.0 * (q1 * q1 + q3 * q3)) * uy
              + (2.0 * (q2 * q3 + q0 * q1)) * uz)
        c2 = ((2.0 * (q1 * q3 + q0 * q2)) * ux
              + (2.0 * (q2 * q3 - q0 * q1)) * uy
              + (1.0 - 2.0 * (q1 * q1 + q2 * q2)) * uz)
        tx = tx + g * ((izz - iyy) * c1 * c2)
        ty = ty + g * ((ixx - izz) * c2 * c0)
        tz = tz + g * ((iyy - ixx) * c0 * c1)
    return (
        0.5 * (-q1 * wx - q2 * wy - q3 * wz),
        0.5 * (q0 * wx - q3 * wy + q2 * wz),
        0.5 * (q3 * wx + q0 * wy - q1 * wz),
        0.5 * (-q2 * wx + q1 * wy + q0 * wz),
        (tx - (izz - iyy) * wy * wz) / ixx,
        (ty - (ixx - izz) * wz * wx) / iyy,
        (tz - (iyy - ixx) * wx * wy) / izz,
    )


def _rk4_renormalized(c, dt, ixx, iyy, izz, frames):
    """One RK4 step of the seven columns ``c``, quaternion renormalized.

    ``c`` holds Python floats (one row) or numpy columns (a batch); both
    give the same IEEE double results. ``frames`` is None or the three
    stage frames as tuples of Python floats.
    """
    body = (ixx, iyy, izz)
    f0, f1, f2 = (None, None, None) if frames is None else frames
    k1 = _rates(*c, *body, f0)
    m1 = tuple(c[j] + (0.5 * dt) * k1[j] for j in range(7))
    k2 = _rates(*m1, *body, f1)
    m2 = tuple(c[j] + (0.5 * dt) * k2[j] for j in range(7))
    k3 = _rates(*m2, *body, f1)
    m3 = tuple(c[j] + dt * k3[j] for j in range(7))
    k4 = _rates(*m3, *body, f2)
    s = tuple(c[j] + (dt / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
              for j in range(7))
    norm = np.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2] + s[3] * s[3])
    return (s[0] / norm, s[1] / norm, s[2] / norm, s[3] / norm) + s[4:]


# Below this many rows a loop over Python floats is faster than the ~150
# small numpy operations of one column-wise step.
ROW_LOOP_MAX = 16


def step_rows(out, dt, ixx, iyy, izz, frames):
    """``attbench.core.rk4_step_batch`` on its copy ``out``, in place."""
    out = _buffer(out, "states", 2, -1, _at_least(7), writable=True)
    frames = _buffer(frames, "frames", 2, 3, 4, optional=True)
    args = (dt, ixx, iyy, izz, None if frames is None else frames.tolist())
    if len(out) < ROW_LOOP_MAX:
        for row in out:
            row[:7] = _rk4_renormalized(row[:7].tolist(), *args)
    else:
        step = _rk4_renormalized(tuple(out[:, j] for j in range(7)), *args)
        for j in range(7):
            out[:, j] = step[j]


def fixed_sum(terms, axis=-1):
    """Sum of ``terms`` over ``axis`` (the particles or points), in order:
    ((t0 + t1) + t2) + ..."""
    return np.add.accumulate(terms, axis=axis).take(-1, axis=axis)


def _product(x, h):
    """h x_i for every row x_i of the (M, n) ``x``, as an (m, M) array z:
    z[r] sums x[:, c] h[r, c] over the columns in order, from -0.0,
    skipping the columns where h[r, c] == 0 (a selection row costs one
    term). A row of h equal bit for bit to an earlier one copies its z."""
    cols = np.ascontiguousarray(x.T)
    z = np.empty((len(h), len(x)))
    first = {}
    for r, row in enumerate(h):
        done = first.setdefault(row.tobytes(), r)
        if done < r:
            z[r] = z[done]
            continue
        acc = np.full(len(x), -0.0)
        for c, coef in enumerate(row.tolist()):
            if coef != 0.0:
                acc = acc + cols[c] * coef
        z[r] = acc
    return z


def _unit_quaternions(x):
    """Columns 0..3 of each row of the 2-D ``x`` divided by their norm, in
    place; the squares are summed in column order."""
    norm = np.sqrt(x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1] + x[:, 2] * x[:, 2] + x[:, 3] * x[:, 3])
    x[:, :4] /= norm[:, None]


def moments_rows(x, normals, root, h, w, r, quaternion, mean, y_hat, s):
    """The particle filter's cloud pass on ``attbench.core.cloud_moments``'s
    arguments (x the cloud, w the weights) and its outputs.

    Row i of x gets the jitter sum over k of normals[i, k] root[j, k] added
    to each column j, then, with ``quaternion``, columns 0..3 divided by
    their norm; both in place. Then ``_sigma_rows`` with w as both weights,
    and no Q, state covariance or C, writes ``mean``, ``y_hat`` and ``s``.
    ``normals`` may be a ``draw_rows`` draw.
    """
    if isinstance(normals, Draw):
        normals = normals.out
    x = _buffer(x, "cloud", 2, _at_least(1), _at_least(4 if quaternion else 1),
                writable=normals is not None or bool(quaternion))
    rows, n = x.shape
    h = _buffer(h, "H", 2, _at_least(1), n, optional=True)
    m = n if h is None else len(h)
    normals = _buffer(normals, "normals", 2, rows, n, optional=True)
    if normals is not None:
        root = _buffer(root, "root", 2, n, n)
    w = _buffer(w, "weights", 1, rows)
    r = _buffer(r, "R", 2, m, m, optional=True)
    mean = _buffer(mean, "mean", 1, n, writable=True)
    y_hat = _buffer(y_hat, "y_hat", 1, m, writable=True)
    s = _buffer(s, "s", RANK_1_OR_2, m, m, writable=True)
    with np.errstate(all="ignore"):  # as in C, non-finite values pass silently
        if normals is not None:
            x += _product(normals, root).T
        if quaternion:
            _unit_quaternions(x)
    _sigma_rows(x, w, w, None, h, r, mean, None, y_hat, s, None)


def loglik_rows(x, h, l, y, out):
    """``out[i]`` = -0.5 |v|^2, v the forward substitution of l v = y - h x_i:
    v_j = (y_j - z_j - l[j, 0] v_0 - ... - l[j, j-1] v_{j-1}) / l[j, j],
    subtracted in that order, skipping the terms where l[j, c] == 0, and
    |v|^2 summed from -0.0. z = h x_i is ``_product``'s."""
    x = _buffer(x, "x", 2, -1, _at_least(1))
    rows, n = x.shape
    h = _buffer(h, "h", 2, _at_least(1), n)
    k = len(h)
    l = _buffer(l, "l", 2, k, k)
    y = _buffer(y, "y", 1, k)
    out = _buffer(out, "out", 1, rows, writable=True)
    with np.errstate(all="ignore"):  # as in C, non-finite values pass silently
        z = _product(x, h)
        v = []
        for j, row in enumerate(l.tolist()):
            acc = y[j] - z[j]
            for c in range(j):
                if row[c] != 0.0:
                    acc = acc - row[c] * v[c]
            v.append(acc / row[j])
        ss = np.full(len(x), -0.0)
        for vj in v:
            ss = ss + vj * vj
        out[:] = -0.5 * ss


# fixed_exp's constants: 1.5 2^52, which rounds a sum to an integer; the
# Cody-Waite split of ln 2 (LN2_HI has 32 bits, so k LN2_HI is exact);
# 1/2!, ..., 1/13!; and the arguments below and above which exp rounds to 0
# and overflows
_EXP_SHIFT = 6755399441055744.0
_INV_LN2 = 1.4426950408889634
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_EXP_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(2, 14))
_EXP_UNDER = -7.45133219101941108420e+02
_EXP_OVER = 7.09782712893383973096e+02


def fixed_exp(x):
    """exp of each entry of the float64 array ``x``, from +, -, * and
    selects alone, so every CPU gives the same bits (Muller, *Elementary
    Functions*, 2016, ch. 11; the reduction and thresholds are fdlibm's).

    Cody-Waite reduction: k = x / ln 2 rounded to the nearest integer (ties
    to even) by adding and subtracting 1.5 2^52, and r = hi - lo with
    hi = x - k LN2_HI (exact) and lo = k LN2_LO, so |r| <= ln(2) / 2;
    e = (hi - r) - lo is the rounding error of r. Then
    exp(r) = 1 + (r + (r^2 p(r) + e)), p the Taylor polynomial
    1/2! + r/3! + ... + r^11/13! by Estrin's scheme (pairs a + b r, then
    pairs of those times r^2, then r^4), and 2^k exp(r) as ``ldexp`` gives
    it: one multiply by 2^k when that is exact, else by 2^(k + 1022) and
    then 2^-1022 (a subnormal result, rounded once) or by 2^(k - 1) and then
    2. 2^j is built from the bits of 1.5 2^52 + j. Below -745.133... (and at
    -inf) the result is 0, above 709.78... it is inf, and a NaN comes back
    as it is; these selects replace whatever the arithmetic gave there.
    Within 1 ulp of exp on [-745.2, 0]; exactly 1 at +-0.
    """
    x = np.asarray(x, dtype=np.float64)
    p = _EXP_TAYLOR
    with np.errstate(all="ignore"):
        t = x * _INV_LN2 + _EXP_SHIFT
        k = t - _EXP_SHIFT
        hi = x - k * _LN2_HI
        lo = k * _LN2_LO
        r = hi - lo
        e = (hi - r) - lo
        r2 = r * r
        r4 = r2 * r2
        poly = (((p[0] + p[1] * r) + (p[2] + p[3] * r) * r2)
                + r4 * (((p[4] + p[5] * r) + (p[6] + p[7] * r) * r2)
                        + r4 * ((p[8] + p[9] * r) + (p[10] + p[11] * r) * r2)))
        y = 1.0 + (r + (r2 * poly + e))
        below, above = k < -1021.0, k > 1023.0
        k2 = np.where(below, -1022.0, np.where(above, 1.0, 0.0))
        s2 = np.where(below, 2.0 ** -1022, np.where(above, 2.0, 1.0))
        s1 = (((t - k2).view(np.uint64) + np.uint64(1023)) << np.uint64(52)).view(np.float64)
        y = (y * s1) * s2
        y = np.where(x < _EXP_UNDER, 0.0, y)
        y = np.where(x > _EXP_OVER, np.inf, y)
        return np.where(x != x, x, y)


def weigh_rows(loglik, w, x, limit, out, mean, var):
    """The particle filter's weight pass, over float64 arrays: the (N,)
    log-likelihoods ``loglik`` (None: keep the weights), the (N,) prior
    weights ``w`` and the (N, n) cloud ``x``.

    ``out`` = w ``fixed_exp``(loglik - max loglik) (the max is NaN when any
    entry is), divided by its total, ``fixed_sum``'s; when that total is not
    a finite number > 0, ``out`` is 1/N each instead (a reset). Then the ESS
    1 / (out_0^2 + out_1^2 + ...), summed the same way, and resample =
    ESS < ``limit``. Unless it resamples, ``mean`` and ``var`` get the
    weighted mean and marginal variance of the cloud under ``out``, as
    ``moments_rows`` writes them without a jitter, H or R, S's diagonal
    alone. Returns (reset, resample).
    """
    x = _buffer(x, "x", 2, _at_least(1), _at_least(1))
    rows, n = x.shape
    loglik = _buffer(loglik, "loglik", 1, rows, optional=True)
    w = _buffer(w, "w", 1, rows)
    out = _buffer(out, "out", 1, rows, writable=True)
    mean = _buffer(mean, "mean", 1, n, writable=True)
    var = _buffer(var, "var", 1, n, writable=True)
    reset = False
    with np.errstate(all="ignore"):  # as in C, non-finite values pass silently
        if loglik is None:
            out[:] = w
        else:
            out[:] = w * fixed_exp(loglik - loglik.max())
            total = fixed_sum(out)
            reset = not (np.isfinite(total) and total > 0.0)
            if reset:
                out[:] = 1.0 / len(out)
            else:
                out /= total
        resample = bool(1.0 / fixed_sum(out * out) < limit)
    if not resample:
        moments_rows(x, None, None, None, out, None, False, mean, np.empty(len(mean)), var)
    return reset, resample


def _forward(l, lo, hi, b, v):
    """v[i] = (b[i] - l[i][lo] v[lo] - ... - l[i][i-1] v[i-1]) / l[i][i] for
    the rows [lo, hi) of the nested lists ``l``, subtracted in that order;
    ``b`` and ``v`` are lists of Python floats."""
    for i in range(lo, hi):
        li = l[i]
        acc = b[i]
        for k in range(lo, i):
            acc = acc - li[k] * v[k]
        v[i] = acc / li[i]


def factor_rows(a, bounds, nu, l):
    """Cholesky-factor each diagonal block [start, stop) of ``a`` listed in
    ``bounds`` into the same block of ``l``, in place, and return the tuple
    of each block's NIS |L^-1 nu|^2 (empty when ``nu`` is None).

    A block's row i after rows start .. i-1: l[i, j] = (a[i, j] - l[i, start]
    l[j, start] - ... - l[i, j-1] l[j, j-1]) / l[j, j] for j < i, subtracted
    in that order, then l[i, i] = sqrt of the same difference at j = i. Only
    the lower triangle of ``a`` is read. The NIS sums the squares of
    ``_forward``'s v from -0.0, in row order.

    Raises:
        ValueError: ``bounds`` is not a non-empty flat tuple of (start, stop)
            pairs with 0 <= start < stop <= m, or a pivot is not a finite
            number > 0 (``a`` is not positive definite, or not finite).
    """
    a = _buffer(a, "S", 2, _at_least(1))
    if a.shape[1] != len(a):
        raise ValueError("S must be a square matrix")
    nu = _buffer(nu, "nu", 1, len(a), optional=True)
    l = _buffer(l, "l", 2, len(a), len(a), writable=True)
    if not _bounds(bounds, len(a), 0, "bounds"):
        raise ValueError("bounds must hold (start, stop) pairs")
    rows, lrows = a.tolist(), l.tolist()
    b = None if nu is None else nu.tolist()
    v = [0.0] * len(rows)
    nis = []
    for lo, hi in zip(bounds[::2], bounds[1::2]):
        for i in range(lo, hi):
            ai, li = rows[i], lrows[i]
            for j in range(lo, i + 1):
                lj = lrows[j]
                acc = ai[j]
                for k in range(lo, j):
                    acc = acc - li[k] * lj[k]
                if j < i:
                    li[j] = acc / lj[j]
                elif 0.0 < acc < math.inf:
                    li[i] = math.sqrt(acc)
                else:
                    raise ValueError("matrix is not positive definite (pivot of row %d)" % i)
        if b is not None:
            _forward(lrows, lo, hi, b, v)
            ss = -0.0
            for i in range(lo, hi):
                ss = ss + v[i] * v[i]
            nis.append(ss)
    l[:] = lrows
    return tuple(nis)


def _ordered_dot(a, b):
    """a[0] b[0] + a[1] b[1] + ..., summed from -0.0 in order."""
    acc = -0.0
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


def _update_rows(mu, sigma, cross, l, nu, mu_out, sigma_out):
    """The Kalman update from the lower-triangular Cholesky factor ``l`` of S.

    W = C L^-T: row r of W is ``_forward`` on row r of C; v = L^-1 nu
    likewise. ``mu_out`` = mu + W v and ``sigma_out`` = sigma - W W', whose
    entry (r, c), c >= r, is sigma[r, c] minus ``_ordered_dot`` of rows r
    and c of W, mirrored to (c, r), so ``sigma_out`` is exactly symmetric.
    Only the upper triangle of ``sigma`` is read.
    """
    lrows = l.tolist()
    m = len(lrows)
    v = [0.0] * m
    _forward(lrows, 0, m, nu.tolist(), v)
    w = []
    for row in cross.tolist():
        w.append([0.0] * m)
        _forward(lrows, 0, m, row, w[-1])
    mu_out[:] = [x + _ordered_dot(wr, v) for x, wr in zip(mu.tolist(), w)]
    out = sigma.tolist()
    for r, wr in enumerate(w):
        for c in range(r, len(w)):
            out[r][c] = out[c][r] = out[r][c] - _ordered_dot(wr, w[c])
    sigma_out[:] = out


def _skip_zero(coef, terms):
    """``terms`` with -0.0 where ``coef`` is exactly zero. Adding -0.0 leaves
    every sum unchanged, so a sum of the result is the sum that skips those
    terms, as the C skips them."""
    return np.where(coef != 0.0, terms, -0.0)


def _mirror(full, out):
    """``out`` = the upper triangle of the square ``full``, mirrored onto the
    lower, so ``out`` is exactly symmetric."""
    out[:] = np.where(np.tri(len(full), dtype=bool).T, full, full.T)


def _spread(wu, v, add, out):
    """``out`` = sum over the columns i of wu[:, i] v[:, i]', plus ``add``
    (None adds nothing), in column order: a square ``out`` sums its upper
    triangle and mirrors it, so it is exactly symmetric; a 1-D ``out`` gets
    the diagonal alone."""
    if out.ndim == 1:
        terms = fixed_sum(wu * v)
        out[:] = terms if add is None else terms + add.diagonal()
        return
    upper, cols = np.triu_indices(len(out))
    terms = fixed_sum(wu[upper] * v[cols])
    if add is not None:
        terms = terms + add[upper, cols]
    out[upper, cols] = terms
    out[cols, upper] = terms


def _sigma_rows(x, wm, wc, q, h, r, mean, cov, y_hat, s, cross):
    """The one weighted-moments body, of the UKF's sigma sets and the
    particle filter's cloud: the moments of the (M, n) rows of x, with the
    (M,) mean weights wm and covariance weights wc. ``mean`` = sum wm_i x_i,
    then ``cov`` = sum wc_i dx_i dx_i' + q with dx_i = x_i - mean (a None
    ``cov`` is skipped). With an ``s``: z_i = h x_i (``_product``'s; x_i
    itself when h is None), ``y_hat`` = sum wm_i z_i, ``s`` = sum wc_i dz_i
    dz_i' + r with dz_i = z_i - y_hat, and ``cross`` = sum wc_i dx_i dz_i'
    (a None ``cross`` is skipped). Each sum runs over the rows in order from
    -0.0, each term is (wc_i du) dv; ``cov`` and ``s`` are ``_spread``'s, so
    a 1-D ``s`` gets the diagonal alone. The work runs on the columns of x.
    """
    with np.errstate(all="ignore"):  # as in C, non-finite values pass silently
        xt = x.T
        mean[:] = fixed_sum(wm * xt)
        if cov is not None or cross is not None:
            dx = xt - mean[:, None]
            wdx = wc * dx
        if cov is not None:
            _spread(wdx, dx, q, cov)
        if s is None:
            return
        z = xt if h is None else _product(x, h)
        y_hat[:] = mean if h is None else fixed_sum(wm * z)
        dz = z - y_hat[:, None]
        _spread(wc * dz, dz, r, s)
        if cross is not None:
            cross[:] = fixed_sum(wdx[:, None, :] * dz[None, :, :])


def _ekf_rows(prop, eps, sigma, q, h, r, cov, y_hat, s, cross):
    """The EKF's predicted covariance and measurement moments from its
    (2n + 1, n) stencil ``prop`` after one propagation step: the mean, then
    the mean with +eps on each state in turn, then with -eps.

    The Jacobian is a[i, j] = (prop[1 + j, i] - prop[1 + n + j, i]) / (2 eps).
    ``cov`` = a sigma a' + q: t = a sigma sums a[i, j] sigma[j, c] over j,
    then entry (i, k), k >= i, sums t[i, c] a[k, c] over c, adds q[i, k] and
    is mirrored to (k, i). With mu = prop[0]: ``y_hat`` = h mu
    (``_product``'s), ``cross`` = cov h', whose entry (i, r) sums cov[i, c]
    h[r, c] over c, and ``s`` = h cross + r, whose entry (r, c), c >= r, sums
    h[r, j] cross[j, c] over j, adds r[r, c] and is mirrored. Every sum runs
    in order from -0.0 and skips the terms whose a or h coefficient is zero.
    """
    n = len(sigma)
    ht = h.T
    with np.errstate(all="ignore"):  # as in C, non-finite values pass silently
        # at, the Jacobian's transpose, puts the summed index first
        at = (prop[1:n + 1] - prop[n + 1:]) / (2.0 * eps)
        coef = at[:, :, None]
        t = fixed_sum(_skip_zero(coef, coef * sigma[:, None, :]), axis=0)
        coef = at[:, None, :]
        _mirror(fixed_sum(_skip_zero(coef, t.T[:, :, None] * coef), axis=0) + q, cov)
        y_hat[:] = fixed_sum(_skip_zero(ht, ht * prop[0][:, None]), axis=0)
        coef = ht[:, None, :]
        cross[:] = fixed_sum(_skip_zero(coef, cov.T[:, :, None] * coef), axis=0)
        coef = ht[:, :, None]
        _mirror(fixed_sum(_skip_zero(coef, coef * cross[:, None, :]), axis=0) + r, s)


def _hemispheres(blocks, m, n):
    """The assess passes' hemisphere ``blocks``: four-row blocks inside the
    m-row reading, which need a quaternion among the n states."""
    if _bounds(blocks, m, 4, "blocks") and n < 4:
        raise ValueError("hemisphere blocks need n >= 4 states")


def aligned(y, mu, blocks):
    """Copy of the reading ``y`` with each hemisphere block [start, stop) of
    the flat tuple ``blocks`` negated, block after block, where its dot
    product with the quaternion mu[0..3], summed over the four components in
    order as Python floats, is negative."""
    y = np.array(y, dtype=float)
    if not blocks:
        return y
    q0, q1, q2, q3 = np.asarray(mu, dtype=float)[:4].tolist()
    for lo, hi in zip(blocks[::2], blocks[1::2]):
        y0, y1, y2, y3 = y[lo:hi].tolist()
        if y0 * q0 + y1 * q1 + y2 * q2 + y3 * q3 < 0.0:
            y[lo:hi] = -y[lo:hi]
    return y


def sigma_set(mu, root, points):
    """Write the sigma set about the (n,) ``mu`` with the (n, n) ``root`` into
    the (2n + 1, n) ``points``: mu, then mu + column j of root for each j,
    then mu - column j; returns ``points``."""
    n = len(mu)
    points[0] = mu
    points[1:n + 1] = mu + root.T
    points[n + 1:] = mu - root.T
    return points


def points_rows(mu, sigma, scale, points):
    """``sigma_set`` with the ``factor_rows`` factor of scale sigma (zero
    above its diagonal) as the root. Returns False, writing nothing, when
    scale sigma is not positive definite, else True."""
    mu = _buffer(mu, "mu", 1, _at_least(1))
    n = len(mu)
    sigma = _buffer(sigma, "sigma", 2, n, n)
    points = _buffer(points, "points", 2, 2 * n + 1, n, writable=True)
    l = np.zeros((n, n))
    try:
        factor_rows(scale * sigma, (0, n), None, l)
    except ValueError:
        return False
    sigma_set(mu, l, points)
    return True


def ekf_assess_rows(prop, eps, sigma, q, h, r, blocks, y, cov, s, cross, nu, l):
    """The EKF's assess pass: ``_ekf_rows`` into cov, s and cross, then
    ``nu`` = ``aligned``(y, prop[0], blocks) - y_hat, then the factor of S
    into the lower triangle of ``l``; returns the NIS |l^-1 nu|^2
    (``factor_rows``).

    Raises:
        ValueError: S is not positive definite.
    """
    prop = _buffer(prop, "prop", 2, -1, _at_least(1))
    n = prop.shape[1]
    if len(prop) != 2 * n + 1:
        raise ValueError("prop must be (2n + 1, n)")
    h = _buffer(h, "h", 2, _at_least(1), n)
    m = len(h)
    sigma = _buffer(sigma, "sigma", 2, n, n)
    q = _buffer(q, "q", 2, n, n)
    r = _buffer(r, "r", 2, m, m)
    y = _buffer(y, "y", 1, m)
    cov = _buffer(cov, "cov", 2, n, n, writable=True)
    s = _buffer(s, "s", 2, m, m, writable=True)
    cross = _buffer(cross, "cross", 2, n, m, writable=True)
    nu = _buffer(nu, "nu", 1, m, writable=True)
    l = _buffer(l, "l", 2, m, m, writable=True)
    _hemispheres(blocks, m, n)
    y_hat = np.empty(m)
    _ekf_rows(prop, eps, sigma, q, h, r, cov, y_hat, s, cross)
    nu[:] = aligned(y, prop[0], blocks) - y_hat
    return factor_rows(s, (0, len(s)), nu, l)[0]


def ukf_assess_rows(prop, wm, wc, q, scale, h, r, r_det, blocks, y, mean, cov, points, s, s_det,
                    cross, nu):
    """The UKF's assess pass. With the propagated set ``prop`` (and
    ``points`` None): ``_sigma_rows`` with q into ``mean`` and ``cov``, then
    the set ``points_rows`` regenerates about them with ``scale``; None
    when it cannot (scale cov is not positive definite), with mean and cov
    written. With ``prop`` None, ``points`` is that set and mean holds the
    predicted mean. Then ``_sigma_rows`` of the set with h and r into s and
    cross (C about the set's own mean), ``s_det`` = s + r_det r, ``nu`` =
    ``aligned``(y, mean, blocks) - y_hat, and the NIS of S_det, which it
    returns (``factor_rows``).

    Raises:
        ValueError: not exactly one of ``prop`` and ``points`` is given, or
            S_det is not positive definite.
    """
    mean = _buffer(mean, "mean", 1, _at_least(1), writable=True)
    n = len(mean)
    h = _buffer(h, "h", 2, _at_least(1), n)
    m = len(h)
    prop = _buffer(prop, "prop", 2, 2 * n + 1, n, optional=True)
    points = _buffer(points, "points", 2, 2 * n + 1, n, optional=True)
    wm = _buffer(wm, "wm", 1, 2 * n + 1)
    wc = _buffer(wc, "wc", 1, 2 * n + 1)
    q = _buffer(q, "q", 2, n, n)
    r = _buffer(r, "r", 2, m, m)
    y = _buffer(y, "y", 1, m)
    cov = _buffer(cov, "cov", 2, n, n, writable=True)
    s = _buffer(s, "s", 2, m, m, writable=True)
    s_det = _buffer(s_det, "s_det", 2, m, m, writable=True)
    cross = _buffer(cross, "cross", 2, n, m, writable=True)
    nu = _buffer(nu, "nu", 1, m, writable=True)
    if (prop is None) == (points is None):
        raise ValueError("exactly one of prop and points is required")
    _hemispheres(blocks, m, n)
    if prop is not None:
        _sigma_rows(prop, wm, wc, q, None, None, mean, cov, None, None, None)
        points = np.empty(prop.shape)
        if not points_rows(mean, cov, scale, points):
            return None
    y_hat = np.empty(len(h))
    _sigma_rows(points, wm, wc, None, h, r, np.empty(len(mean)), None, y_hat, s, cross)
    s_det[:] = s + r_det * r
    nu[:] = aligned(y, mean, blocks) - y_hat
    return factor_rows(s_det, (0, len(s_det)), nu, np.zeros(s_det.shape))[0]


def gauss_update_rows(mu, sigma, cross, s, l, nu, rows, quaternion, mu_out, sigma_out):
    """The Gaussian step's update pass: on the rows the tuple ``rows`` lists
    (None: every row), gather S, C and nu, factor that S by ``factor_rows``
    (unless every row is used and ``l``, its factor, is given) and write
    ``_update_rows`` into mu_out and sigma_out; with no rows, copy mu and
    sigma. Then, with ``quaternion``, renormalize mu_out's columns 0..3.

    Raises:
        ValueError: the S on those rows is not positive definite.
    """
    mu = _buffer(mu, "mu", 1, _at_least(1))
    s = _buffer(s, "s", 2, _at_least(1))
    if s.shape[1] != len(s):
        raise ValueError("s must be a square matrix")
    n, m = len(mu), len(s)
    sigma = _buffer(sigma, "sigma", 2, n, n)
    cross = _buffer(cross, "cross", 2, n, m)
    l = _buffer(l, "l", 2, m, m, optional=True)
    nu = _buffer(nu, "nu", 1, m)
    mu_out = _buffer(mu_out, "mu_out", 1, n, writable=True)
    sigma_out = _buffer(sigma_out, "sigma_out", 2, n, n, writable=True)
    if quaternion and n < 4:
        raise ValueError("a quaternion needs n >= 4 states")
    if rows is not None and not _bounds(rows, m, INDICES, "rows"):
        mu_out[:] = mu
        sigma_out[:] = sigma
    else:
        if rows is not None:
            rows = [int(i) for i in rows]  # a bool is an index, as in C
            s, cross, nu, l = s[np.ix_(rows, rows)], cross[:, rows], nu[rows], None
        if l is None:
            l = np.zeros(s.shape)
            factor_rows(s, (0, len(s)), None, l)
        _update_rows(mu, sigma, cross, l, nu, mu_out, sigma_out)
    if quaternion:
        _unit_quaternions(mu_out[None])


def csv_rows(block):
    """The rows of the 2-D float64 C-contiguous ``block`` as CSV text: each
    value as ``'%.9g' % value`` formats it, joined by commas, each row ended
    by CRLF.

    Raises:
        ValueError: ``block`` is not such an array with at least one column.
    """
    block = _buffer(block, "block", 2, -1, _at_least(1))
    fmt = ",".join(["%.9g"] * block.shape[1]) + "\r\n"
    return "".join([fmt % tuple(row) for row in block.tolist()])


def normal_rows(rng, out):
    """Fill the float64 C-contiguous array ``out`` with the numpy Generator
    ``rng``'s standard normals: ``rng.standard_normal(out=out)`` itself."""
    rng.standard_normal(out=_buffer(out, "out", ANY_RANK, writable=True))


class Draw:
    """A draw ``draw_rows`` made: already written, so ``wait`` returns its
    array at once."""

    __slots__ = ("out",)

    def __init__(self, out):
        self.out = out

    def wait(self):
        return self.out


def draw_rows(rng, out):
    """``normal_rows(rng, out)``, returned as a ``Draw`` that
    ``moments_rows`` takes as its normals. The compiled entry may run the
    draw on its worker thread; here it is written before this returns."""
    normal_rows(rng, out)
    return Draw(out)


def systematic_index(w, u):
    """Systematic resampling's picks: for each position (i + u) / N of the
    comb, i < N, the first index whose cumulative weight (summed in order)
    is above it, or N - 1 when none is, which also covers a sum that rounds
    below 1. With uniform weights every index is picked exactly once; a
    degenerate weight vector concentrates all picks on its support.

    Args:
        w: float64 (N,) weights, none negative.
        u: offset in [0, 1).

    Returns:
        Index array (N,).

    Raises:
        ValueError: a weight is negative.
    """
    if (w < 0.0).any():
        raise ValueError("weights must not be negative")
    n = w.size
    return np.minimum(np.searchsorted(np.cumsum(w), (np.arange(n) + u) / n, side="right"),
                      n - 1)


def resample_rows(x, w, u, out):
    """Write the rows of the (N, d) ``x`` that ``systematic_index(w, u)``
    picks into the (N, d) ``out``."""
    x = _buffer(x, "x", 2)
    w = _buffer(w, "w", 1, len(x))
    out = _buffer(out, "out", 2, *x.shape, writable=True)
    out[...] = x[systematic_index(w, u)]
