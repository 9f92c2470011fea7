"""Build isolation and provenance.

The commit under test is built with its own setup.py into a directory under
``.perfbench/build`` keyed by a digest of the sources, and attbench is
imported from there. Nothing is built into ``src/``: a stale extension left
there would otherwise be measured on every later commit.
"""

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


class BuildError(RuntimeError):
    pass


def _source_files(root):
    files = [root / "setup.py", root / "pyproject.toml"]
    for path in sorted((root / "src" / "attbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix not in (".so", ".pyc"):
            files.append(path)
    return files


def source_digest(root):
    """SHA-256 over the package sources and build files of a checkout."""
    h = hashlib.sha256()
    for path in _source_files(root):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def build(root, work):
    """Build the checkout at ``root`` once per source digest.

    Returns:
        (lib, digest): the directory to put first on sys.path, and the
        source digest it was built from.
    """
    if not (root / "setup.py").is_file() or not (root / "src" / "attbench" / "__init__.py").is_file():
        raise BuildError("no attbench sources (setup.py, src/attbench) under %s" % root)
    digest = source_digest(root)
    dest = work / "build" / ("%s-py%d%d" % (digest[:16], *sys.version_info[:2]))
    if (dest / "ok").is_file():
        return dest / "lib", digest
    dest.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=dest.parent))
    try:
        shutil.copytree(root / "src" / "attbench", tmp / "lib" / "attbench",
                        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc"))
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext",
             "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "obj")],
            cwd=root, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            raise BuildError("setup.py build_ext failed:\n%s%s" % (proc.stdout, proc.stderr))
        (tmp / "ok").write_text(digest + "\n")
        if dest.exists():
            shutil.rmtree(dest)
        tmp.rename(dest)
    finally:
        if tmp.exists():
            shutil.rmtree(tmp)
    return dest / "lib", digest


def import_attbench(lib):
    """Import the built package from ``lib`` and return its modules by layer."""
    sys.path.insert(0, str(lib))
    import attbench
    from attbench import core, dynamics, fdir, filters, runner, scenario

    if Path(attbench.__file__).resolve().parent != (Path(lib) / "attbench").resolve():
        raise BuildError("attbench imported from %s, not from the build" % attbench.__file__)
    return {"core": core, "dynamics": dynamics, "fdir": fdir, "filters": filters,
            "runner": runner, "scenario": scenario}


def git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def provenance(root, digest, backend):
    import numpy
    import scipy

    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
        "source_sha256": digest,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
