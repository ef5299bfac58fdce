"""Setup shim + optional native extension.

This offline environment lacks the ``wheel`` package, so PEP 660
editable installs (which need ``bdist_wheel``) fail; this shim lets
``pip install -e . --no-use-pep517 --no-build-isolation`` fall back to
the classic ``setup.py develop`` path.

It also declares the optional C extension behind
:mod:`fragalign._native`:

    python setup.py build_ext --inplace

drops ``fragalign/_native/_kernels*.so`` next to its package.  The
extension is marked ``optional`` — a missing compiler degrades the
build to pure python (the ``native`` backend then falls back to the
numpy uint64 bit-parallel kernels), it never fails it.

The build stamps the sha256 of ``_kernels.c`` into the module as
``SOURCE_HASH``; :mod:`fragalign._native` refuses a ``.so`` whose stamp
is missing or does not match the source next to it (a stale build).
"""

import hashlib
from pathlib import Path

from setuptools import Extension, find_packages, setup

KERNELS_C = "src/fragalign/_native/_kernels.c"
SOURCE_HASH = hashlib.sha256(
    (Path(__file__).resolve().parent / KERNELS_C).read_bytes()
).hexdigest()

setup(
    name="fragalign",
    package_dir={"": "src"},
    packages=find_packages("src"),
    ext_modules=[
        Extension(
            "fragalign._native._kernels",
            sources=[KERNELS_C],
            define_macros=[("FRAGALIGN_SOURCE_HASH", f'"{SOURCE_HASH}"')],
            optional=True,
            extra_compile_args=["-O3"],
        )
    ],
)
