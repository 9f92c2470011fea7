"""Hot-loop kernels with a compiled fast path and a numpy fallback.

The compiled extension ``_kernels_c`` is built from the hand-written C
source next to this file. It is optional: if the build was skipped or the
import fails, the numpy implementation takes over with identical numerics.
Set ``ATTBENCH_PURE_PYTHON=1`` to force the fallback regardless.
"""

import os

from . import kernels_py

if os.environ.get("ATTBENCH_PURE_PYTHON", "") not in ("", "0"):
    _step_rows = kernels_py.step_rows
    BACKEND = "python"
else:
    try:
        from ._kernels_c import step_rows as _step_rows

        BACKEND = "compiled"
    except ImportError:
        _step_rows = kernels_py.step_rows
        BACKEND = "python"


def rk4_step_batch(states, dt, ixx, iyy, izz, tx, ty, tz, frames=None):
    """Advance a batch of [q, w, ...] states by one RK4 step on the active
    backend; the contract is ``kernels_py.rk4_step_batch``'s. Both backends
    get their arrays validated and copied here, before any reaches C."""
    out, frames = kernels_py.checked_batch(states, frames)
    _step_rows(out, dt, ixx, iyy, izz, tx, ty, tz, frames)
    return out


__all__ = ["rk4_step_batch", "BACKEND"]
