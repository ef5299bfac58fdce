"""Shared fixtures, hypothesis configuration and the C-kernel build.

The C extension is optional and not built in the source tree, so
before collection the session builds it with ``setup.py build_ext``
into a temporary directory (never into ``src/``) and registers it as
``fragalign._native._kernels`` in ``sys.modules``.  The C-kernel tests
then run under the plain ``pytest`` command.  Without a compiler the
build yields no ``.so``, the package falls back as it does in
production, and the C-kernel tests skip with the reason in the report
header.  ``FRAGALIGN_TEST_NATIVE=0`` skips the build, to test the
fallback path on a host that has a compiler.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

REPO = Path(__file__).resolve().parents[1]
_NATIVE_BUILD: dict = {"dir": None, "status": "not attempted"}


def build_native(out: Path) -> tuple[Path | None, str]:
    """``setup.py build_ext`` into ``out``; returns (the built ``.so``
    or None, the build's output tail)."""
    cmd = [
        sys.executable, "setup.py", "build_ext",
        "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp"),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=REPO, capture_output=True, text=True, timeout=300
        )
        output = (proc.stdout + proc.stderr).strip()
    except (OSError, subprocess.TimeoutExpired) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    built = sorted((out / "lib" / "fragalign" / "_native").glob("_kernels*.so"))
    return (built[0] if built else None), output[-500:]


def register_native(so: Path) -> None:
    """Import ``so`` as ``fragalign._native._kernels`` (before anything
    imports :mod:`fragalign._native`, which then picks it up)."""
    name = "fragalign._native._kernels"
    spec = importlib.util.spec_from_file_location(name, so)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module


def pytest_configure(config) -> None:
    if os.environ.get("FRAGALIGN_TEST_NATIVE") == "0":
        _NATIVE_BUILD["status"] = "skipped (FRAGALIGN_TEST_NATIVE=0)"
        return
    if "fragalign._native" in sys.modules:
        _NATIVE_BUILD["status"] = "skipped (fragalign._native was already imported)"
        return
    out = Path(tempfile.mkdtemp(prefix="fragalign-native-"))
    _NATIVE_BUILD["dir"] = out
    so, output = build_native(out)
    if so is None:
        last = output.splitlines()[-1] if output else "no output"
        _NATIVE_BUILD["status"] = f"produced no extension ({last})"
        return
    register_native(so)
    _NATIVE_BUILD["status"] = f"built into {out}"


def pytest_unconfigure(config) -> None:
    if _NATIVE_BUILD["dir"] is not None:
        shutil.rmtree(_NATIVE_BUILD["dir"], ignore_errors=True)


def pytest_report_header(config) -> str:
    from fragalign import _native

    state = "C kernels live" if _native.HAVE_NATIVE else (
        f"C kernels OFF ({_native.NATIVE_ERROR}); C-kernel tests skip"
    )
    return f"fragalign native: {state}; test build {_NATIVE_BUILD['status']}"


# One moderate profile for the whole suite: enough examples to matter,
# fast enough to keep `pytest tests/` snappy.
settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def paper_instance():
    from fragalign.core import paper_example

    return paper_example()
