"""Private build of the package under test.

The benchmark never imports ``src/`` in place.  It copies ``setup.py``
and ``src/fragalign`` into ``.bench_build/pkg-<hash>/`` (the hash
covers both, so an edited tree or build definition gets a fresh copy),
builds the copy's C extension with the repository's own definition
(``setup.py build_ext --inplace``: its sources and compile flags), and
puts the copy's ``src`` first on ``sys.path``.  Only when ``setup.py``
is missing or cannot run does it compile ``_native/_kernels.c``
directly with fixed flags; the record names which way was used.
``ClusterSupervisor`` derives its children's ``PYTHONPATH`` from the
imported package's location, so the shards run the same private build.

Compile time is a diagnostic: it is paid once per source hash and is
never part of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

BUILD_DIR = ".bench_build"


class BuildError(RuntimeError):
    """The checkout does not hold a buildable package."""


def _source_files(pkg: Path) -> list[Path]:
    return sorted(
        p for p in pkg.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts and p.suffix != ".so"
    )


def _tree_hash(pkg: Path, setup_py: Path) -> str:
    h = hashlib.sha256()
    if setup_py.is_file():
        h.update(setup_py.read_bytes())
    for path in _source_files(pkg):
        h.update(str(path.relative_to(pkg)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _setup_build(staging: Path) -> tuple[bool, str]:
    """``setup.py build_ext --inplace`` in the staging copy; returns
    (setup.py ran, its output).  The extension is optional there, so a
    failed compile still exits 0 and leaves no ``.so``."""
    cmd = [sys.executable, "setup.py", "build_ext", "--inplace", "--build-temp", "tmp"]
    try:
        proc = subprocess.run(cmd, cwd=staging, capture_output=True, text=True, timeout=300)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return False, f"{type(exc).__name__}: {exc}"
    finally:
        for scratch in ("build", "tmp"):
            shutil.rmtree(staging / scratch, ignore_errors=True)
    return proc.returncode == 0, (proc.stdout + proc.stderr).strip()


def _compile(native_dir: Path) -> tuple[bool, str]:
    """Fallback: compile ``_kernels.c`` in place with fixed flags;
    returns (ok, compiler output)."""
    source = native_dir / "_kernels.c"
    if not source.exists():
        return False, "no _kernels.c in the package"
    target = native_dir / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()
    cmd = cc + [
        "-O3", "-fPIC", "-shared", "-DNDEBUG", "-fwrapv",
        "-I", sysconfig.get_paths()["include"],
        str(source), "-o", str(target),
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return False, f"{type(exc).__name__}: {exc}"
    return proc.returncode == 0, (proc.stdout + proc.stderr).strip()


def prepare(root: Path) -> dict:
    """Build (or reuse) the private package and import it.

    Returns the build record: package dir, source hash, whether the C
    extension compiled, and the compile time paid when it was built.
    """
    src = root / "src" / "fragalign"
    setup_py = root / "setup.py"
    if not (src / "__init__.py").is_file():
        raise BuildError(f"no package source at {src}")
    digest = _tree_hash(src, setup_py)
    pkg_root = root / BUILD_DIR / f"pkg-{digest}"
    stamp = pkg_root / "build.json"
    if not stamp.is_file():
        staging = root / BUILD_DIR / f"staging-{digest}-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        shutil.copytree(
            src, staging / "src" / "fragalign",
            ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc"),
        )
        native = staging / "src" / "fragalign" / "_native"
        start = time.perf_counter()
        ran = False
        if setup_py.is_file():
            shutil.copy2(setup_py, staging / "setup.py")
            ran, output = _setup_build(staging)
        if ran:
            via, compiled = "setup.py", any(native.glob("_kernels*.so"))
        else:
            via, (compiled, output) = "cc", _compile(native)
        record = {
            "source_hash": digest,
            "build_via": via,
            "compiled": compiled,
            "compile_s": time.perf_counter() - start,
            "compiler_output": output[-2000:],
        }
        (staging / "build.json").write_text(json.dumps(record, indent=1))
        shutil.rmtree(pkg_root, ignore_errors=True)
        staging.rename(pkg_root)
    record = json.loads(stamp.read_text())
    sys.path.insert(0, str(pkg_root / "src"))
    import fragalign
    from fragalign import _native

    if Path(fragalign.__file__).resolve().parents[1] != (pkg_root / "src").resolve():
        raise BuildError(f"imported {fragalign.__file__}, not the private build")
    record["pkg_root"] = str(pkg_root)
    # Which implementation answers native requests: the C kernels, or
    # the numpy-uint64 fallback when the extension did not build.
    record["impl"] = "c" if _native.HAVE_NATIVE else "uint64"
    return record
