"""The :class:`AlignmentEngine` facade.

One object, four verbs::

    with AlignmentEngine(backend="numpy") as eng:
        aln    = eng.align(a, b)          # full Alignment (traceback)
        s      = eng.score(a, b)          # score only
        alns   = eng.align_many(pairs)    # batch, bucketed by shape
        scores = eng.score_many(pairs)    # batch, bucketed by shape

Every verb takes optional ``mode=`` / ``band=`` / ``gap_open=`` /
``gap_extend=`` overrides (and the align verbs ``memory=``), so one
engine can serve all four alignment modes (``global``, ``local``,
``overlap``, ``banded``), both gap models (linear and affine/Gotoh)
and both traceback strategies (direction tensor / linear-memory
Hirschberg walker) — the service layer relies on this to route
per-request knobs through a single engine.  ``band`` is required
whenever the resolved mode is ``banded``; ``gap_open``/``gap_extend``
must be passed together (both ``None`` keeps the model's linear gap);
``memory`` is ``"auto"`` (linear-memory traceback above
``LINEAR_AUTO_CELLS`` DP cells), ``"tensor"`` or ``"linear"``.

Every verb also takes ``backend=`` — a registered backend name that
overrides the engine's default for that call (instantiated lazily,
once, and kept for the engine's lifetime).  Dispatch is
capability-probed: the chosen backend's
:meth:`AlignmentBackend.accelerates` is consulted and the call falls
through to the numpy backend when the combo is not covered (the
``native`` backend accelerates the score verbs for flat models in
``global``/``overlap`` and integer models in ``local``, and the align
verbs for integer models with a linear gap in all three), so a
``backend="native"`` request never errors on an uncovered knob
combination — it just runs on numpy at numpy speed.

The facade owns everything backends shouldn't care about: memoized
sequence encoding (each distinct sequence is encoded once per engine),
the memoized default scoring matrix, validation, and bucketing mixed
-length batches into uniform-shape groups so backends only ever see
batches their kernels can sweep in lockstep.

Setting :attr:`AlignmentEngine.profiler` (any object with the
:class:`fragalign.obs.kprof.KernelProfiler` ``record`` signature)
turns on per-dispatch kernel profiling: every backend call is timed
and reported with its family, backend, resolved mode and batch shape.
Left at ``None`` (the default) the verbs take the exact pre-profiling
code path — no timer reads, no overhead.
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import lru_cache
from typing import Sequence

import numpy as np

from fragalign.align.pairwise import Alignment, check_affine_gaps
from fragalign.align.scoring_matrices import SubstitutionModel, encode, unit_dna
from fragalign.engine.backends import (
    MODES,
    AlignmentBackend,
    PreparedPair,
    check_memory_mode,
    linear_memory_conflict,
)
from fragalign.engine.registry import get_backend
from fragalign.util.lru import LRUCache

__all__ = ["AlignmentEngine", "default_model"]


@lru_cache(maxsize=1)
def default_model() -> SubstitutionModel:
    """The engine's default scoring matrix, built (and validated) once."""
    return unit_dna()


class AlignmentEngine:
    """Facade over the backend registry with batch APIs and memoized prep.

    Parameters
    ----------
    backend:
        A registered backend name (``naive``, ``numpy``, ``parallel``)
        or an :class:`AlignmentBackend` instance.
    model:
        Substitution model; defaults to the memoized unit-cost model.
    mode:
        Default alignment mode: ``"global"`` (Needleman–Wunsch),
        ``"local"`` (Smith–Waterman), ``"overlap"`` (suffix–prefix) or
        ``"banded"``.  Every verb accepts a per-call ``mode=`` override.
    band:
        Default band half-width for ``banded`` mode (per-call ``band=``
        overrides it).  Must be a non-negative integer when set.
    gap_open / gap_extend:
        Default affine (Gotoh) gap parameters — a k-long gap costs
        ``gap_open + (k-1)·gap_extend``.  Both ``None`` (the default)
        keeps the model's linear per-symbol gap; both must be set
        together and be non-positive.  Per-call overrides on every
        verb.
    memory:
        Default traceback strategy for the align verbs: ``"auto"``
        (the default — linear-memory Hirschberg walker above a size
        threshold, direction tensor below), ``"tensor"`` or
        ``"linear"``.  Score verbs always run in O(n + m) memory.
    cache_size:
        How many distinct sequences' encodings to memoize (a bounded
        LRU — ``<= 0`` disables memoization).  Bounded so a
        long-running server scoring an open-ended stream of distinct
        sequences holds steady-state memory.
    **backend_options:
        Forwarded to the backend factory (e.g. ``workers=4`` for
        ``parallel``, ``chunk=32`` for ``numpy``).
    """

    def __init__(
        self,
        backend: str | AlignmentBackend = "numpy",
        model: SubstitutionModel | None = None,
        mode: str = "global",
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        memory: str = "auto",
        cache_size: int = 4096,
        **backend_options,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown alignment mode {mode!r} (expected one of {MODES})")
        if band is not None and (not isinstance(band, int) or isinstance(band, bool) or band < 0):
            raise ValueError(f"band must be a non-negative integer, got {band!r}")
        if mode == "banded" and band is None:
            raise ValueError("mode='banded' needs a band (pass band=...)")
        if gap_open is not None or gap_extend is not None:
            gap_open, gap_extend = check_affine_gaps(gap_open, gap_extend)
        check_memory_mode(memory)
        if memory == "linear":
            conflict = linear_memory_conflict(mode, gap_open is not None)
            if conflict is not None:
                # Fail at construction, not on every align call — a
                # server built on this engine would otherwise boot
                # cleanly and then reject 100% of its align traffic.
                raise ValueError(f"memory='linear' is not supported with {conflict}")
        self.model = model or default_model()
        self.mode = mode
        self.band = band
        self.gap_open = gap_open
        self.gap_extend = gap_extend
        self.memory = memory
        if isinstance(backend, AlignmentBackend):
            if backend_options:
                raise ValueError("backend options only apply when backend is a name")
            self._backend = backend
        else:
            self._backend = get_backend(backend, **backend_options)
        # Per-call `backend=` overrides instantiate lazily, once per
        # name, and live for the engine's lifetime (closed with it).
        self._extra_backends: dict[str, AlignmentBackend] = {}
        self._codes = LRUCache(cache_size)
        # Optional KernelProfiler-shaped sink (see module docstring);
        # the serving tier attaches one so `fragalign top` has data.
        self.profiler = None

    @property
    def backend(self) -> AlignmentBackend:
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    def _get_backend(self, name: str | None) -> AlignmentBackend:
        """The engine default, or a lazily-built per-call override."""
        if name is None or name == self._backend.name:
            return self._backend
        be = self._extra_backends.get(name)
        if be is None:
            be = get_backend(name)
            self._extra_backends[name] = be
        return be

    def _route(
        self, op: str, mode: str, kw: dict, backend: str | None
    ) -> AlignmentBackend:
        """Capability-probed dispatch: the requested backend if it
        accelerates this (op, model, mode, knobs) combo, else numpy.

        Partial backends (``native``) self-report coverage through
        :meth:`AlignmentBackend.accelerates`; the fallthrough keeps
        every knob combination servable under any ``backend=`` without
        the partial backend reimplementing the full matrix.
        """
        be = self._get_backend(backend)
        if not be.accelerates(
            op,
            self.model,
            mode,
            band=kw.get("band"),
            gap_open=kw.get("gap_open"),
            gap_extend=kw.get("gap_extend"),
        ):
            be = self._get_backend("numpy")
        return be

    # -- preparation -------------------------------------------------

    def _encode(self, seq: str) -> np.ndarray:
        codes = self._codes.get(seq)
        if codes is None:
            codes = encode(seq)
            self._codes.put(seq, codes)
        return codes

    def prepare(self, a: str, b: str) -> PreparedPair:
        """Encode one pair (memoized per distinct sequence)."""
        return PreparedPair(a, b, self._encode(a), self._encode(b))

    def _resolve(
        self,
        mode: str | None,
        band: int | None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        memory: str | None = None,
        align: bool = False,
    ) -> tuple[str, dict]:
        """Per-call knob resolution -> (mode, backend kwargs)."""
        mode = self.mode if mode is None else mode
        if mode not in MODES:
            raise ValueError(f"unknown alignment mode {mode!r} (expected one of {MODES})")
        kw: dict = {}
        if gap_open is None and gap_extend is None:
            gap_open, gap_extend = self.gap_open, self.gap_extend
        else:
            gap_open, gap_extend = check_affine_gaps(gap_open, gap_extend)
        if gap_open is not None:
            kw["gap_open"] = gap_open
            kw["gap_extend"] = gap_extend
        if align:
            memory = self.memory if memory is None else memory
            check_memory_mode(memory)
            if memory != "auto":
                # "auto" is every backend's default — omitting it keeps
                # minimal third-party backends (mode-only signatures)
                # working until a caller actually uses the knob.
                kw["memory"] = memory
        if mode != "banded":
            return mode, kw
        band = self.band if band is None else band
        if band is None:
            raise ValueError("mode='banded' needs a band (pass band=...)")
        kw["band"] = band
        return mode, kw

    # -- single-pair API ---------------------------------------------

    def score(
        self,
        a: str,
        b: str,
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        backend: str | None = None,
    ) -> float:
        mode, kw = self._resolve(mode, band, gap_open, gap_extend)
        be = self._route("score", mode, kw, backend)
        if self.profiler is None:
            return be.score(self.prepare(a, b), self.model, mode, **kw)
        prep = self.prepare(a, b)
        start = time.perf_counter()
        value = be.score(prep, self.model, mode, **kw)
        self.profiler.record(
            "score", be.name, mode, [prep.shape],
            time.perf_counter() - start,
        )
        return value

    def align(
        self,
        a: str,
        b: str,
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        memory: str | None = None,
        backend: str | None = None,
    ) -> Alignment:
        mode, kw = self._resolve(mode, band, gap_open, gap_extend, memory, align=True)
        be = self._route("align", mode, kw, backend)
        if self.profiler is None:
            return be.align(self.prepare(a, b), self.model, mode, **kw)
        prep = self.prepare(a, b)
        start = time.perf_counter()
        aln = be.align(prep, self.model, mode, **kw)
        self.profiler.record(
            "align", be.name, mode, [prep.shape],
            time.perf_counter() - start,
        )
        return aln

    # -- batch API ---------------------------------------------------

    def _buckets(
        self, preps: list[PreparedPair]
    ) -> list[tuple[list[int], list[PreparedPair]]]:
        by_shape: dict[tuple[int, int], list[int]] = defaultdict(list)
        for k, p in enumerate(preps):
            by_shape[p.shape].append(k)
        return [([k for k in idxs], [preps[k] for k in idxs]) for idxs in by_shape.values()]

    def score_many(
        self,
        pairs: Sequence[tuple[str, str]],
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        backend: str | None = None,
    ) -> np.ndarray:
        """Scores for every (a, b) pair, in input order.

        Pairs are bucketed by shape; each uniform bucket goes to the
        backend's batch kernel in one call.  Equals ``[self.score(a, b)
        for a, b in pairs]`` (a standing test invariant).
        """
        mode, kw = self._resolve(mode, band, gap_open, gap_extend)
        be = self._route("score_many", mode, kw, backend)
        preps = [self.prepare(a, b) for a, b in pairs]
        out = np.empty(len(preps))
        for idxs, bucket in self._buckets(preps):
            if self.profiler is None:
                out[idxs] = be.score_many(bucket, self.model, mode, **kw)
                continue
            start = time.perf_counter()
            out[idxs] = be.score_many(bucket, self.model, mode, **kw)
            self.profiler.record(
                "score_many", be.name, mode,
                [p.shape for p in bucket], time.perf_counter() - start,
            )
        return out

    def align_many(
        self,
        pairs: Sequence[tuple[str, str]],
        mode: str | None = None,
        band: int | None = None,
        gap_open: float | None = None,
        gap_extend: float | None = None,
        memory: str | None = None,
        backend: str | None = None,
    ) -> list[Alignment]:
        """Full alignments for every pair, in input order (bucketed)."""
        mode, kw = self._resolve(mode, band, gap_open, gap_extend, memory, align=True)
        be = self._route("align_many", mode, kw, backend)
        preps = [self.prepare(a, b) for a, b in pairs]
        out: list[Alignment | None] = [None] * len(preps)
        for idxs, bucket in self._buckets(preps):
            start = time.perf_counter() if self.profiler is not None else 0.0
            for k, aln in zip(idxs, be.align_many(bucket, self.model, mode, **kw)):
                out[k] = aln
            if self.profiler is not None:
                self.profiler.record(
                    "align_many", be.name, mode,
                    [p.shape for p in bucket], time.perf_counter() - start,
                )
        return out  # type: ignore[return-value]

    # -- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Release backend resources (worker pools), overrides included."""
        self._backend.close()
        for be in self._extra_backends.values():
            be.close()

    def __enter__(self) -> "AlignmentEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"AlignmentEngine(backend={self.backend_name!r}, mode={self.mode!r}, "
            f"cached_seqs={len(self._codes)})"
        )
