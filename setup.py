"""Build hook for the optional compiled integration kernel.

`attbench.core._kernels_c` is built from the hand-written C source
`src/attbench/core/_kernels_c.c`. It uses only the CPython buffer protocol,
so a C compiler is all a build needs: no Cython, and no numpy headers.

The extension is optional: a missing compiler or a failed build is not an
error, and `attbench.core` falls back to the numpy kernels at import time.

    python setup.py build_ext --inplace

builds the extension next to its sources in `src/`, which is what makes
`PYTHONPATH=src python -m pytest` run on the compiled backend.
"""

import os

from setuptools import Extension, setup

# _ziggurat.h holds numpy's normal ziggurat tables; the numpy bit generator
# interface the normal draws use is redeclared in the C source, so the build
# still needs no numpy headers
kernel = Extension("attbench.core._kernels_c", ["src/attbench/core/_kernels_c.c"],
                   depends=["src/attbench/core/_ziggurat.h"])
# fp-contract off keeps the C arithmetic bit-identical to the numpy
# fallback (no FMA fusing of a*b+c). The per-particle passes are also built
# for AVX2 (target_clones in the source, where the compiler and libc support
# it): each vector lane runs the same correctly rounded IEEE operations as
# the scalar code, in the same order, so both builds keep the fallback's
# bits, and contraction stays off in each of them.
# The normal draws' worker thread (draw_rows) needs pthreads.
if os.name == "posix":
    kernel.extra_compile_args.extend(["-O3", "-ffp-contract=off", "-pthread"])
    kernel.extra_link_args.append("-pthread")
kernel.optional = True

setup(ext_modules=[kernel])
