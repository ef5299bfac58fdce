"""Seeded input generators.

Every input a run sends is a pure function of the workload definition
and ``--seed``: the program under test only ever receives the
generated sequences.
"""

from __future__ import annotations

import numpy as np

BASES = np.frombuffer(b"ACGT", dtype=np.uint8)


def read(rng: np.random.Generator, length: int) -> str:
    return BASES[rng.integers(0, 4, length)].tobytes().decode()


def mutate(rng: np.random.Generator, seq: str, sub_rate: float, indel_rate: float) -> str:
    """A copy of ``seq`` with substitutions (always to a different base)
    and single-base indels, half insertions and half deletions."""
    out: list[str] = []
    draws = rng.random(len(seq))
    for ch, u in zip(seq, draws):
        if u < sub_rate:
            out.append("ACGT"[("ACGT".index(ch) + int(rng.integers(1, 4))) % 4])
        elif u < sub_rate + indel_rate / 2:
            continue  # deletion
        elif u < sub_rate + indel_rate:
            out.append(ch)
            out.append("ACGT"[int(rng.integers(0, 4))])  # insertion
        else:
            out.append(ch)
    return "".join(out)


def pair(rng: np.random.Generator, length: int, sub_rate: float, indel_rate: float) -> tuple[str, str]:
    a = read(rng, length)
    return a, mutate(rng, a, sub_rate, indel_rate)


def unique_pairs(
    rng: np.random.Generator, count: int, length: int, sub_rate: float, indel_rate: float,
    exclude: set | None = None,
) -> list[tuple[str, str]]:
    """``count`` distinct pairs, none of them in ``exclude``."""
    seen = set(exclude or ())
    out: list[tuple[str, str]] = []
    while len(out) < count:
        p = pair(rng, length, sub_rate, indel_rate)
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def zipf_ranks(rng: np.random.Generator, n_keys: int, exponent: float, count: int) -> np.ndarray:
    """``count`` draws of key ranks 0..n_keys-1 with P(rank k) ∝ (k+1)^-s."""
    weights = np.arange(1, n_keys + 1, dtype=float) ** -exponent
    cdf = np.cumsum(weights / weights.sum())
    return np.minimum(np.searchsorted(cdf, rng.random(count)), n_keys - 1)
