"""Output checks: expected answers from the numpy engine.

Expected answers come from an in-process ``AlignmentEngine`` on the
``numpy`` backend, computed before any timing.  A served score must
equal its expected score exactly.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

KNOBS = ("mode", "band", "gap_open", "gap_extend")


def expected_scores(engine, items: Sequence[dict]) -> list[float]:
    """Expected score per item; items share knobs within each group."""
    out: list[float] = [0.0] * len(items)
    groups: dict[tuple, list[int]] = defaultdict(list)
    for k, item in enumerate(items):
        groups[tuple(item.get(n) for n in KNOBS)].append(k)
    for key, idxs in groups.items():
        knobs = {n: v for n, v in zip(KNOBS, key) if v is not None}
        scores = engine.score_many([(items[k]["a"], items[k]["b"]) for k in idxs], **knobs)
        for k, s in zip(idxs, scores):
            out[k] = float(s)
    return out
