"""Optional C kernels: import gate + numpy marshalling.

The extension (``fragalign._native._kernels``) is built by
``python setup.py build_ext --inplace`` and is deliberately optional:
this package imports cleanly without it, exporting ``HAVE_NATIVE =
False`` so :mod:`fragalign.engine.native` can fall back to the pure
numpy uint64 kernels in :mod:`fragalign.align.bitparallel`.

The import is guarded against stale builds: ``setup.py`` stamps the
sha256 of ``_kernels.c`` into the module as ``SOURCE_HASH``, and a
module whose stamp is missing or differs from the ``_kernels.c`` in
this package is refused (``HAVE_NATIVE = False``, the reason in
``NATIVE_ERROR``) — an older ``.so`` would otherwise load and fail on
the first entry point it lacks.  When no ``_kernels.c`` is shipped
next to the extension the stamp cannot be checked; the module is
accepted and :data:`SOURCE_CHECK` says so.

The wrappers here are intentionally low-level — uint8 code matrices in,
int64 scores (or direction codes) out.  Model/mode resolution
(flat-family detection, N handling, empty pairs, score scaling) lives
in the backend; these only marshal contiguous buffers into the
extension's buffer-protocol entry points and size-check the output.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

KERNELS_C = Path(__file__).with_name("_kernels.c")


def check_stamp(module, source: Path = KERNELS_C) -> tuple[str | None, str]:
    """(why ``module`` must be refused or ``None``, a one-line summary
    of the source check) for a loaded extension module."""
    stamp = getattr(module, "SOURCE_HASH", None)
    if not isinstance(stamp, str):
        return (
            "stale build: the extension carries no SOURCE_HASH stamp "
            "(rebuild with `python setup.py build_ext --inplace`)",
            "no stamp",
        )
    if not source.is_file():
        return None, f"unchecked: no {source.name} shipped with the extension"
    want = hashlib.sha256(source.read_bytes()).hexdigest()
    if stamp != want:
        return (
            f"stale build: the extension was built from {source.name} "
            f"sha256 {stamp[:12]}, the source is {want[:12]} "
            "(rebuild with `python setup.py build_ext --inplace`)",
            "mismatch",
        )
    return None, "match"


try:
    from fragalign._native import _kernels as _K

    NATIVE_ERROR, SOURCE_CHECK = check_stamp(_K)
    SOURCE_HASH = getattr(_K, "SOURCE_HASH", None)
except ImportError as exc:  # no compiler / extension not built
    _K = None
    SOURCE_HASH = None
    if any(KERNELS_C.parent.glob("_kernels*.so")):
        SOURCE_CHECK = "import failed"
        NATIVE_ERROR = f"the extension failed to import: {exc}"
    else:
        SOURCE_CHECK = "not built"
        NATIVE_ERROR = (
            "no _kernels extension built "
            "(`python setup.py build_ext --inplace` builds it)"
        )
if NATIVE_ERROR is not None:
    _K = None
HAVE_NATIVE = _K is not None


def build_info() -> dict[str, str]:
    """Labels of the ``fragalign_build_info`` gauge: ``impl``, which
    kernels answer ``native`` requests (``c``, or the numpy ``uint64``
    fallback); ``native``, the state of the C build (``ok``,
    ``unchecked`` when no source shipped to check the stamp against,
    ``stale: no stamp`` / ``stale: mismatch``, ``not built``, ``import
    failed``); and the ``numpy`` version."""
    if HAVE_NATIVE:
        state = "ok" if SOURCE_CHECK == "match" else "unchecked"
    elif SOURCE_CHECK in ("no stamp", "mismatch"):
        state = f"stale: {SOURCE_CHECK}"
    else:
        state = SOURCE_CHECK
    return {
        "impl": "c" if HAVE_NATIVE else "uint64",
        "native": state,
        "numpy": np.__version__,
    }


_FAMILIES = {"unit": 0, "lev": 1}
_MODES = {"global": 0, "overlap": 1}
_DP_MODES = {"global": 0, "overlap": 1, "local": 2}


def _as_codes(arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a (B, len) uint8 code matrix")
    return arr


def bitparallel_scores_native(
    acodes: np.ndarray,
    bcodes: np.ndarray,
    family: str,
    mode: str = "global",
) -> np.ndarray:
    """Batch Myers/BitPAl scores via the C kernel, in units of ``c``.

    ``acodes``/``bcodes`` are (B, n)/(B, m) uint8 matrices with codes
    0..3 (no N — the backend routes N-carrying pairs to numpy), n and
    m both positive.  Raises :class:`RuntimeError` when the extension
    is unavailable; callers gate on :data:`HAVE_NATIVE`.
    """
    if not HAVE_NATIVE:
        raise RuntimeError(f"native kernels unavailable: {NATIVE_ERROR}")
    acodes = _as_codes(acodes, "acodes")
    bcodes = _as_codes(bcodes, "bcodes")
    B, n = acodes.shape
    Bb, m = bcodes.shape
    if B != Bb:
        raise ValueError("acodes and bcodes batch sizes differ")
    if n == 0 or m == 0:
        raise ValueError("native kernel requires non-empty sequences")
    out = np.zeros(B, dtype=np.int64)
    _K.bitparallel_scores(
        acodes, bcodes, out, B, n, m, _FAMILIES[family], _MODES[mode]
    )
    return out


def striped_local_scores_native(
    acodes: np.ndarray,
    bcodes: np.ndarray,
    matrix: np.ndarray,
    pen: int,
) -> np.ndarray:
    """Batch striped Smith-Waterman local scores via the C kernel.

    ``matrix`` is the 5x5 integer substitution matrix (codes 0..4
    incl. N), ``pen`` the positive linear gap penalty (``-model.gap``).
    Returns int64 scores; the caller converts to float.
    """
    if not HAVE_NATIVE:
        raise RuntimeError(f"native kernels unavailable: {NATIVE_ERROR}")
    acodes = _as_codes(acodes, "acodes")
    bcodes = _as_codes(bcodes, "bcodes")
    B, n = acodes.shape
    Bb, m = bcodes.shape
    if B != Bb:
        raise ValueError("acodes and bcodes batch sizes differ")
    if n == 0 or m == 0:
        raise ValueError("native kernel requires non-empty sequences")
    mat = np.ascontiguousarray(matrix, dtype=np.int32)
    if mat.shape != (5, 5):
        raise ValueError("matrix must be 5x5")
    out = np.zeros(B, dtype=np.int64)
    _K.striped_local_scores(acodes, bcodes, out, B, n, m, mat, int(pen))
    return out


def align_codes_native(
    acodes: np.ndarray,
    bcodes: np.ndarray,
    matrix: np.ndarray,
    pen: int,
    mode: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch linear-gap DP direction codes via the C kernel.

    ``matrix`` is the 5x5 integer substitution matrix (codes 0..4
    incl. N), ``pen`` the positive linear gap penalty (``-model.gap``),
    ``mode`` one of global/overlap/local.  Returns ``(dirs, ends)``:
    ``dirs`` the (B, n, m) uint8 direction codes with the bit
    semantics of :mod:`fragalign.align.pairwise`, ``ends`` a (B, 3)
    int64 array of (score, end_i, end_j) — the cell each pair's walk
    starts from.  The kernel refuses scores past its int32 headroom
    (``(n + m + 2) * max(|matrix|, pen) >= 2**30``) with ValueError.
    """
    if not HAVE_NATIVE:
        raise RuntimeError(f"native kernels unavailable: {NATIVE_ERROR}")
    acodes = _as_codes(acodes, "acodes")
    bcodes = _as_codes(bcodes, "bcodes")
    B, n = acodes.shape
    Bb, m = bcodes.shape
    if B != Bb:
        raise ValueError("acodes and bcodes batch sizes differ")
    if n == 0 or m == 0:
        raise ValueError("native kernel requires non-empty sequences")
    mat = np.ascontiguousarray(matrix, dtype=np.int32)
    if mat.shape != (5, 5):
        raise ValueError("matrix must be 5x5")
    dirs = np.empty((B, n, m), dtype=np.uint8)
    ends = np.empty((B, 3), dtype=np.int64)
    _K.align_codes(
        acodes, bcodes, dirs, ends, B, n, m, mat, int(pen), _DP_MODES[mode]
    )
    return dirs, ends
