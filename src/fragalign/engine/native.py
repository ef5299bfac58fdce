"""The ``native`` backend: bit-parallel, striped-SIMD and DP kernels.

Three kernel families, one capability-probed backend:

* **Myers/BitPAl bit-parallel** — the score verbs in ``global``/``overlap``
  for *flat* models (see
  :func:`fragalign.align.bitparallel.flat_model_family`): 64 DP cells
  per uint64 word, implemented twice.  The C extension
  (:mod:`fragalign._native`) runs when built; the pure-numpy uint64
  kernels in :mod:`fragalign.align.bitparallel` serve as both the
  no-compiler fallback and the parity oracle.
* **Farrar striped Smith-Waterman** — the ``local`` score verbs for
  integer substitution models with an integer linear gap.  C only;
  without the extension this combo reports unaccelerated.
* **Direction-code DP** — the align verbs (``global``/``overlap``/
  ``local``) for the same integer models: one C sweep per chunk of a
  same-shape bucket emits the numpy kernels' uint8 direction codes
  and end cells, and each pair is recovered by the *same*
  :func:`fragalign.align.pairwise._walk_global` /
  :func:`~fragalign.align.pairwise._walk_local` walks the numpy
  backend uses, so there is one traceback implementation and the
  alignments are identical by construction.  C only.  It makes the
  numpy backend's ``resolve_memory`` decision: ``memory="linear"``
  (Hirschberg) stays on numpy, as do empty sides and pairs whose
  scores could pass the kernel's int32 headroom.

The backend is deliberately *partial*: :meth:`accelerates` tells the
:class:`fragalign.engine.AlignmentEngine` facade exactly which
(op, model, mode) combos the kernels cover, and the facade falls
through to the numpy backend for everything else (affine gaps,
banded mode, non-integer models, and non-flat models for the
``global``/``overlap`` score verbs).  Called directly, the unsupported
combos delegate to an internal :class:`NumpyBackend` so the backend is
still total — capability probing is an optimization contract, not a
correctness one.

Pairs whose sequences contain ``N`` (code 4) are split out of the
bit-parallel path per batch — the 2-bit Eq tables cover A/C/G/T only —
and scored by the internal numpy backend; the striped-SW kernel
handles ``N`` natively through its 5x5 profile.
"""

from __future__ import annotations

import numpy as np

from fragalign._native import (
    HAVE_NATIVE,
    NATIVE_ERROR,
    align_codes_native,
    bitparallel_scores_native,
    striped_local_scores_native,
)
from fragalign.align.bitparallel import (
    bitparallel_scores_batch,
    flat_model_family,
)
from fragalign.align.pairwise import Alignment, _walk_global, _walk_local
from fragalign.align.scoring_matrices import SubstitutionModel
from fragalign.engine.backends import (
    AlignmentBackend,
    NumpyBackend,
    PreparedPair,
    resolve_memory,
)

__all__ = ["NativeBackend", "HAVE_NATIVE", "NATIVE_ERROR"]

_SCORE_OPS = ("score", "score_many")
_ALIGN_OPS = ("align", "align_many")
_ALIGN_MODES = ("global", "overlap", "local")

# int32 headroom limits mirrored from the C entry point's guard: the
# striped kernel refuses batches whose scores could approach the lane
# dtype's range, and the backend routes those to numpy instead of
# tripping the kernel's ValueError.
_SW_MAX_SCORE = 1 << 27
_SW_MAX_DECAY = 1 << 29
# The direction-code DP's guard: |H| and every one-step candidate stay
# within (n + m + 2) * max(|matrix|, pen).
_DP_MAX_CELL = 1 << 30


def _striped_params(
    model: SubstitutionModel,
) -> tuple[np.ndarray, int] | None:
    """(int32 matrix, positive gap penalty) when the striped-SW kernel
    covers this model — integral 5x5 matrix, integral negative linear
    gap — else ``None``."""
    mat = np.asarray(model.matrix, dtype=np.float64)
    if mat.shape != (5, 5):
        return None
    rounded = np.rint(mat)
    if not np.array_equal(rounded, mat):
        return None
    gap = float(model.gap)
    if gap >= 0 or gap != int(gap):
        return None
    return rounded.astype(np.int32), int(-gap)


class NativeBackend(AlignmentBackend):
    """Bit-parallel / striped-SIMD / direction-code kernels with fallback.

    Parameters
    ----------
    force_fallback:
        Pretend the C extension is absent — the bit-parallel path uses
        the numpy uint64 kernels, and ``local`` scores and the align
        verbs report unaccelerated.
        The no-compiler CI job and the A/B benchmarks use this.
    require_native:
        Raise at construction when the C extension is unavailable
        (the native-build CI job asserts the compiled path is live).
    chunk:
        Chunk size for the internal numpy backend that takes the
        unaccelerated verbs and the N-carrying bit-parallel pairs.
    """

    name = "native"

    def __init__(
        self,
        force_fallback: bool = False,
        require_native: bool = False,
        chunk: int = 64,
    ) -> None:
        if require_native and not HAVE_NATIVE:
            raise RuntimeError(
                f"native kernels required but unavailable: {NATIVE_ERROR}"
            )
        self.use_c = HAVE_NATIVE and not force_fallback
        self._numpy = NumpyBackend(chunk=chunk)

    # -- capability probe --------------------------------------------

    def accelerates(
        self, op, model, mode, band=None, gap_open=None, gap_extend=None
    ) -> bool:
        if gap_open is not None or gap_extend is not None:
            return False
        if op in _ALIGN_OPS:
            return (
                self.use_c
                and mode in _ALIGN_MODES
                and _striped_params(model) is not None
            )
        if op not in _SCORE_OPS:
            return False
        if mode in ("global", "overlap"):
            return flat_model_family(model) is not None
        if mode == "local":
            return self.use_c and _striped_params(model) is not None
        return False

    # -- score verbs --------------------------------------------------

    def score(
        self, p, model, mode, band=None, gap_open=None, gap_extend=None
    ) -> float:
        return float(
            self.score_many([p], model, mode, band, gap_open, gap_extend)[0]
        )

    def score_many(
        self, batch, model, mode, band=None, gap_open=None, gap_extend=None
    ) -> np.ndarray:
        if not batch:
            return np.empty(0)
        if not self.accelerates(
            "score_many", model, mode, band, gap_open, gap_extend
        ):
            return self._numpy.score_many(
                batch, model, mode, band, gap_open, gap_extend
            )
        n, m = batch[0].shape
        if mode == "local":
            return self._local_many(batch, model, n, m)
        return self._bitparallel_many(batch, model, mode, n, m)

    def _bitparallel_many(
        self, batch, model, mode, n: int, m: int
    ) -> np.ndarray:
        family, c = flat_model_family(model)
        B = len(batch)
        if family == "lev" and mode == "overlap":
            # H[i][0] = 0 and every move is <= 0, so 0 is always
            # attainable and never beatable.
            return np.zeros(B)
        if n == 0 or m == 0:
            if mode == "overlap":
                return np.zeros(B)
            return np.full(B, (n + m) * float(model.gap))
        acodes = np.stack([p.a_codes for p in batch])
        bcodes = np.stack([p.b_codes for p in batch])
        has_n = (acodes.max(axis=1) > 3) | (bcodes.max(axis=1) > 3)
        out = np.empty(B)
        clean = ~has_n
        if clean.any():
            ac, bc = acodes[clean], bcodes[clean]
            if self.use_c:
                out[clean] = bitparallel_scores_native(
                    ac, bc, family, mode
                ) * c
            else:
                out[clean] = bitparallel_scores_batch(
                    list(zip(ac, bc)), model=model, mode=mode
                )
        if has_n.any():
            sub = [p for p, bad in zip(batch, has_n) if bad]
            out[has_n] = self._numpy.score_many(sub, model, mode)
        return out

    def _local_many(self, batch, model, n: int, m: int) -> np.ndarray:
        if n == 0 or m == 0:
            return np.zeros(len(batch))
        mat, pen = _striped_params(model)
        maxabs = int(np.abs(mat).max())
        if (
            (min(n, m) + 1) * max(maxabs, 1) >= _SW_MAX_SCORE
            or (n + 8) * pen >= _SW_MAX_DECAY
        ):
            return self._numpy.score_many(batch, model, "local")
        acodes = np.stack([p.a_codes for p in batch])
        bcodes = np.stack([p.b_codes for p in batch])
        return striped_local_scores_native(
            acodes, bcodes, mat, pen
        ).astype(np.float64)

    # -- align verbs -------------------------------------------------

    def align(
        self, p, model, mode, band=None, gap_open=None, gap_extend=None,
        memory="auto",
    ):
        return self._align(
            [p], model, mode, band, gap_open, gap_extend, memory, chunk=1
        )[0]

    def align_many(
        self, batch, model, mode, band=None, gap_open=None, gap_extend=None,
        memory="auto",
    ):
        return self._align(
            batch, model, mode, band, gap_open, gap_extend, memory,
            chunk=self._numpy.chunk,
        )

    def _align(
        self, batch, model, mode, band, gap_open, gap_extend, memory, chunk
    ) -> list[Alignment]:
        if not batch:
            return []
        if not self.accelerates(
            "align_many", model, mode, band, gap_open, gap_extend
        ):
            return self._numpy.align_many(
                batch, model, mode, band, gap_open, gap_extend, memory
            )
        n, m = batch[0].shape
        mat, pen = _striped_params(model)
        # The numpy backend's decision, on the same per-chunk cell count.
        cells = n * m * min(len(batch), chunk)
        if (
            n == 0
            or m == 0
            or resolve_memory(
                memory, mode, False, cells, self._numpy.linear_auto_cells
            ) == "linear"
            or (n + m + 2) * max(int(np.abs(mat).max()), pen) >= _DP_MAX_CELL
        ):
            return self._numpy.align_many(batch, model, mode, memory=memory)
        out: list[Alignment] = []
        for lo in range(0, len(batch), chunk):
            sub = batch[lo : lo + chunk]
            dirs, ends = align_codes_native(
                np.stack([p.a_codes for p in sub]),
                np.stack([p.b_codes for p in sub]),
                mat, pen, mode,
            )
            for k, (score, ei, ej) in enumerate(ends.tolist()):
                db = dirs[k].tobytes()
                if mode == "local":
                    walked, i0, j0 = _walk_local(db, m, ei, ej)
                    aln = Alignment(
                        float(score), tuple(walked), (i0, ei), (j0, ej)
                    )
                elif mode == "overlap":
                    walked, a_start, _ = _walk_global(db, m, n, ej)
                    aln = Alignment(
                        float(score), tuple(walked), (a_start, n), (0, ej)
                    )
                else:
                    walked, _, _ = _walk_global(db, m, n, m)
                    aln = Alignment(
                        float(score), tuple(walked), (0, n), (0, m)
                    )
                out.append(aln)
        return out
