"""Hot-loop kernels with a compiled fast path and a numpy fallback.

The compiled extension ``_kernels_c`` is built from the hand-written C
source next to this file. It is optional: if the build was skipped or the
import fails, the numpy implementation takes over with identical numerics.
Set ``ATTBENCH_PURE_PYTHON=1`` to force the fallback regardless.

Four groups of kernels live here: the batched rigid-body RK4 step; the
particle filter's two cloud passes (jitter plus moments, and the
log-likelihood); the Gaussian filters' moments (the weighted moments of a
sigma-point cloud, and the EKF's predicted covariance and measurement
moments from its propagated stencil); and the fixed-order Cholesky layer
of the Kalman step (the factor, the NIS, the NIS of several diagonal
blocks in one call, and the Kalman update from the factor). Each function
below validates its arguments before the backend sees them.

A fifth group has no wrapper here: the Gaussian step's fused passes
(``points_rows``, ``ekf_assess_rows``, ``ukf_assess_rows`` and
``gauss_update_rows``), which chain the arithmetic of the groups above.
The EKF and UKF check their constant operands once, when built
(``kernels_py.checked_gaussian``), and call these entries on ``_kernels``,
the active backend, directly; each compiled entry still checks that its
buffers fit each other.
"""

import os

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


def rk4_step_batch(states, dt, ixx, iyy, izz, tx, ty, tz, frames=None):
    """Advance a batch of [q, w, ...] states by one RK4 step on the active
    backend; the contract is ``kernels_py.rk4_step_batch``'s. Both backends
    get their arrays validated and copied here, before any reaches C."""
    out, frames = kernels_py.checked_batch(states, frames)
    _kernels.step_rows(out, dt, ixx, iyy, izz, tx, ty, tz, frames)
    return out


def cloud_moments(cloud, weights, normals=None, root=None, h=None, r=None,
                  quaternion=False, diagonal=False):
    """Jitter a particle cloud in place and return (mean, y_hat, S) on the
    active backend; the contract is ``kernels_py.cloud_moments``'s."""
    args = kernels_py.checked_moments(cloud, weights, normals, root, h, r, quaternion,
                                      diagonal)
    _kernels.moments_rows(*args)
    mean, y_hat, s = args[-3:]
    # an array lent to C through the buffer protocol keeps numpy's ~90 B of
    # buffer info until it is freed; S lives on in the innovation record of
    # every step, so the caller gets a copy that was never lent
    return mean, y_hat, s.copy()


def cloud_loglik(cloud, h, l, y):
    """Per-particle log-likelihood of y on the active backend; the contract
    is ``kernels_py.cloud_loglik``'s."""
    args = kernels_py.checked_loglik(cloud, h, l, y)
    _kernels.loglik_rows(*args)
    return args[-1]


def sigma_moments(points, wm, wc, q=None, h=None, r=None):
    """(mean, P, y_hat, S, C): the weighted moments of a point cloud on the
    active backend; the contract is ``kernels_py.sigma_moments``'s."""
    args, outs = kernels_py.checked_sigma(points, wm, wc, q, h, r)
    _kernels.sigma_rows(*args)
    return outs


def ekf_moments(prop, eps, sigma, q, h, r):
    """(P, y_hat, S, C): the EKF's predicted covariance and measurement
    moments from its propagated stencil on the active backend; the contract
    is ``kernels_py.ekf_moments``'s."""
    args, outs = kernels_py.checked_ekf(prop, eps, sigma, q, h, r)
    _kernels.ekf_rows(*args)
    return outs


def cholesky(a):
    """Lower-triangular L with L L' = a on the active backend; the contract
    is ``kernels_py.cholesky``'s."""
    a, bounds, _, l = kernels_py.checked_factor(a)
    _kernels.factor_rows(a, bounds, None, l)
    return l


def nis(a, nu):
    """(NIS, L): nu' a^-1 nu and the Cholesky factor of ``a`` on the active
    backend; the contract is ``kernels_py.nis``'s."""
    a, bounds, nu, l = kernels_py.checked_factor(a, nu)
    return _kernels.factor_rows(a, bounds, nu, l)[0], l


def block_nis(a, nu, bounds):
    """The NIS of each listed diagonal block of ``a`` on the active backend;
    the contract is ``kernels_py.block_nis``'s."""
    return _kernels.factor_rows(*kernels_py.checked_factor(a, nu, bounds))


def kalman_update(mu, sigma, cross, l, nu):
    """(mu', Sigma') of the Kalman update from the Cholesky factor ``l`` of S
    on the active backend; the contract is ``kernels_py.kalman_update``'s."""
    args = kernels_py.checked_update(mu, sigma, cross, l, nu)
    _kernels.update_rows(*args)
    return args[-2:]


__all__ = ["rk4_step_batch", "cloud_moments", "cloud_loglik", "sigma_moments", "ekf_moments",
           "cholesky", "nis", "block_nis", "kalman_update", "BACKEND"]
