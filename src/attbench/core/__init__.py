"""Hot-loop kernels with a compiled fast path and a numpy fallback.

The compiled extension ``_kernels_c`` is built from the hand-written C
source next to this file. It is optional: if the build was skipped or the
import fails, the numpy implementation ``kernels_py`` takes over with
identical numerics. Set ``ATTBENCH_PURE_PYTHON=1`` to force the fallback
regardless. ``_kernels`` is the active backend; both export the same
``*_rows`` entries.

This module is the kernel API. Each entry, on either backend, is the one
place its buffers are checked: a buffer that is None (unless the entry
documents it as optional; the header of ``_kernels_c.c`` lists those), not a
C-contiguous float64 array, a read-only output or a shape that does not fit
is a ``ValueError`` naming it, with the same message on both backends. The
wrappers here allocate the outputs and pass the operands on as they are:
the batched rigid-body RK4 step (on a new copy of the states), the
weighted-moments pass of a particle cloud, the Cholesky factor and NIS of a
whole matrix, ``normals`` (numpy's standard normal draws, ``normal_rows``)
and ``resample`` (systematic resampling and its gather, ``resample_rows``).
The callers of six more groups call the entries on ``_kernels`` directly:

- the particle filter's log-likelihood pass ``loglik_rows``, with the H and
  L of each row set that ``filters.PfFilter`` caches;
- the particle filter's jitter draw ``draw_rows``, which the compiled
  backend may run on its worker thread while ``filters.PfFilter.step`` runs
  the RK4 step, and which ``moments_rows`` takes in place of its normals
  (the fallback draws at once; the bits are ``normals``'s either way);
- the particle filter's weight pass ``weigh_rows`` (a fixed exp of the
  shifted log-likelihoods, the normalization and reset test, the ESS and,
  unless the step resamples, the posterior mean and marginal variance by
  the moments pass of ``cloud_moments``), on the arrays
  ``filters.PfFilter.step`` makes;
- the Gaussian step's fused passes (``points_rows``, ``ekf_assess_rows``,
  ``ukf_assess_rows`` and ``gauss_update_rows``), whose constant operands
  the EKF and UKF take as their ``filters.FilterConfig`` checked them;
- ``factor_rows`` under the isolation policy, with the per-sensor bounds
  and the scratch factor ``fdir.FdirSupervisor`` binds when built;
- the CSV pass ``csv_rows``, which formats a float block as
  ``runner.write_csv`` builds it, each value as ``'%.9g' %`` does.
"""

import os

import numpy as np

from . import kernels_py

if os.environ.get("ATTBENCH_PURE_PYTHON", "") not in ("", "0"):
    _kernels = kernels_py
    BACKEND = "python"
else:
    try:
        from . import _kernels_c as _kernels

        BACKEND = "compiled"
    except ImportError:
        _kernels = kernels_py
        BACKEND = "python"


def rk4_step_batch(states, dt, ixx, iyy, izz, frames=None):
    """Advance a batch of [q, w, ...] states by one RK4 step.

    Args:
        states: (M, n) array, n >= 7. Columns 0..3 quaternion, 4..6 body
            rates; any further columns (gyro bias states) pass through
            unchanged.
        dt: step, s.
        ixx, iyy, izz: principal moments, kg m^2.
        frames: None (torque-free) or a (3, 4) array of rows
            [ux, uy, uz, g] at t, t + dt/2 and t + dt: the ECI radial unit
            vector and g = 3 mu / R^3, s^-2. Each RK4 stage then applies the
            gravity-gradient torque
            g [(Izz-Iyy) c1 c2, (Ixx-Izz) c2 c0, (Iyy-Ixx) c0 c1], with
            c = DCM(q_stage) u.

    Returns:
        A new C-contiguous float64 (M, n) array, whatever the layout and
        dtype of ``states`` or ``frames``; quaternions renormalized once,
        after the step. ``kernels_py.step_rows`` gives the exact
        arithmetic, which it runs in place on that copy.

    Raises:
        ValueError: naming ``states`` or ``frames``, whose shape is not as
            above.
    """
    out = np.array(states, dtype=np.float64, order="C")
    if frames is not None:
        frames = np.ascontiguousarray(frames, dtype=np.float64)
    _kernels.step_rows(out, dt, ixx, iyy, izz, frames)
    return out


def cloud_moments(cloud, weights, normals=None, root=None, h=None, r=None,
                  quaternion=False, diagonal=False):
    """Jitter a particle cloud in place and return its weighted moments.

    Args:
        cloud: (M, n) float64 C-contiguous particles, M >= 1, as every
            array here; jittered and renormalized in place, so then
            writable.
        weights: (M,) particle weights (zeros allowed).
        normals: None, or the (M, n) standard normals of the jitter.
        root: (n, n) jitter root L; row i gets L @ normals[i] added. Read
            only with ``normals``.
        h: None (the moments of the states themselves) or a dense (m, n)
            measurement matrix.
        r: None or the (m, m) symmetric noise covariance added to S; only
            its upper triangle is read.
        quaternion: whether columns 0..3 are a quaternion to renormalize
            after the jitter.
        diagonal: return S's diagonal (m,) alone, which sums m, not
            m (m + 1) / 2, products per particle.

    Returns:
        (mean (n,), y_hat (m,), S (m, m)): sum w_i x_i, sum w_i h x_i and
        sum w_i dz_i dz_i' + r, each summed over the particles from row 0;
        S is exactly symmetric. ``kernels_py.moments_rows`` gives the exact
        arithmetic.

    Raises:
        ValueError: naming the first array that is not as above.
    """
    n = np.shape(cloud)[-1:]  # (n,) and (m,), as shape tuples
    m = n if h is None else np.shape(h)[:1]
    out = np.empty(n), np.empty(m), np.empty(m if diagonal else m + m)
    _kernels.moments_rows(cloud, normals, root, h, weights, r, quaternion, *out)
    return out


def cholesky(a):
    """Lower-triangular L with L L' = a, a float64 C-contiguous matrix, by
    ``kernels_py.factor_rows``'s arithmetic.

    Raises:
        ValueError: see ``factor_rows``; its ``a`` is named ``S``.
    """
    l = np.zeros(np.shape(a))
    _kernels.factor_rows(a, (0, *l.shape[:1]), None, l)
    return l


def nis(a, nu):
    """(NIS, L): the normalized innovation squared nu' a^-1 nu = |L^-1 nu|^2
    and the Cholesky factor L of ``a`` it came from
    (``kernels_py.factor_rows``), both float64 C-contiguous arrays.

    Raises:
        ValueError: see ``cholesky``.
    """
    l = np.zeros(np.shape(a))
    return _kernels.factor_rows(a, (0, *l.shape[:1]), nu, l)[0], l


def normals(rng, shape):
    """``rng.standard_normal(shape)`` as a new float64 array, bit for bit,
    leaving the numpy Generator ``rng`` where that call leaves it
    (``kernels_py.normal_rows``)."""
    out = np.empty(shape)
    _kernels.normal_rows(rng, out)
    return out


def resample(cloud, weights, u):
    """The rows of the (N, n) float64 C-contiguous ``cloud`` that systematic
    resampling by the (N,) float64 ``weights`` and the offset u picks
    (``kernels_py.systematic_index``), as a new array.

    Raises:
        ValueError: ``cloud`` (named ``x``) is None, a weight is negative,
            or an array is not as above.
    """
    out = np.empty_like(cloud)
    _kernels.resample_rows(cloud, weights, u, out)
    return out


__all__ = ["rk4_step_batch", "cloud_moments", "cholesky", "nis", "normals", "resample",
           "BACKEND"]
