"""The request-field registry: one source of truth for the knob schema.

Every per-request knob the serving stack understands — ``mode``,
``band``, ``gap_open``, ``gap_extend``, ``memory`` — used to be
re-enumerated by hand in five places: the wire protocol's request
parser, the micro-batcher's group key, the server's result-cache key,
the cluster ring's routing key, and the warm-keyset file format.  Any
new knob had to be threaded through all of them identically, and
nothing checked that it was.

This module is now the single registry those layers consume — the
``score_many``/``align_many`` frames included: a frame carries the same
knobs once for all its pairs, so its parser and the batcher's group
entry point are checked against this registry too.  Each
:class:`FieldSpec` says where its field participates:

``cache_key``
    Part of the server's LRU result-cache key — fields that change
    the *result*.  ``memory`` is deliberately not one of them: the
    linear walker returns byte-identical alignments, so one cached
    entry serves every memory strategy.
``ring_key``
    Part of the cluster routing key.  **Invariant:** identical to the
    cache-key set (asserted below) — routing must agree with caching
    or per-shard caches stop being disjoint.
``group_key``
    Part of the micro-batcher's dispatch-group key — fields that
    change how a batch is *executed* (``memory`` is one: a group is
    dispatched as a single engine call, which takes one memory
    strategy).
``keyset``
    Allowed in warm-keyset files (:mod:`fragalign.cluster.warm`).
``cli_flag``
    The command-line spelling on the serving verbs.

The static analyzer (:mod:`fragalign.analysis`, rule family
``knob-propagation``) parses ``_SPECS`` out of this file's AST and
verifies every consumer site covers exactly the registered fields —
so a knob added here without being wired through, or wired somewhere
without being registered, fails ``fragalign check`` (and CI).

NOTE: ``_SPECS`` must stay a **pure literal** (no computed values) so
the analyzer can read it without importing anything.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FieldSpec",
    "REQUEST_FIELDS",
    "FIELD_NAMES",
    "cache_key_fields",
    "ring_key_fields",
    "group_key_fields",
    "keyset_fields",
    "cli_flags",
    "coerce",
]


@dataclass(frozen=True)
class FieldSpec:
    """One registered request knob and where it participates."""

    name: str
    kind: str  # wire type: "str" | "int" | "float"
    ops: tuple[str, ...]  # pair ops the field applies to
    cache_key: bool
    ring_key: bool
    group_key: bool
    keyset: bool
    cli_flag: str
    doc: str


# Pure literal — parsed out of the AST by fragalign.analysis.
_SPECS = (
    {
        "name": "mode",
        "kind": "str",
        "ops": ("score", "align"),
        "cache_key": True,
        "ring_key": True,
        "group_key": True,
        "keyset": True,
        "cli_flag": "--mode",
        "doc": "alignment mode: global, local, overlap or banded",
    },
    {
        "name": "band",
        "kind": "int",
        "ops": ("score", "align"),
        "cache_key": True,
        "ring_key": True,
        "group_key": True,
        "keyset": True,
        "cli_flag": "--band",
        "doc": "banded-mode half-width (>= abs(len(a) - len(b)))",
    },
    {
        "name": "gap_open",
        "kind": "float",
        "ops": ("score", "align"),
        "cache_key": True,
        "ring_key": True,
        "group_key": True,
        "keyset": True,
        "cli_flag": "--gap-open",
        "doc": "affine (Gotoh) gap-open cost; requires gap_extend",
    },
    {
        "name": "gap_extend",
        "kind": "float",
        "ops": ("score", "align"),
        "cache_key": True,
        "ring_key": True,
        "group_key": True,
        "keyset": True,
        "cli_flag": "--gap-extend",
        "doc": "affine (Gotoh) gap-extend cost; requires gap_open",
    },
    {
        "name": "memory",
        "kind": "str",
        "ops": ("align",),
        "cache_key": False,  # byte-identical results: cache entries are shared
        "ring_key": False,  # ...and routing mirrors the cache key
        "group_key": True,  # but one engine batch runs one strategy
        "keyset": True,
        "cli_flag": "--memory",
        "doc": "align traceback strategy: auto, tensor or linear",
    },
    {
        "name": "backend",
        "kind": "str",
        "ops": ("score", "align"),
        "cache_key": False,  # backends are parity-tested: same scores,
        "ring_key": False,  # ...so cache entries and routing are shared
        "group_key": True,  # but one engine batch runs on one backend
        "keyset": True,
        "cli_flag": "--backend",
        "doc": "engine backend for this request: numpy, native, naive or parallel",
    },
    # Trace context (fragalign.obs.trace) rides the wire as
    # *non-semantic* fields: every participation flag is off, so the
    # knob-propagation rule proves tracing can never split a batch,
    # enter a cache or routing key, or appear in a warm keyset —
    # observability only annotates, it never changes identity.
    {
        "name": "trace_id",
        "kind": "str",
        "ops": ("score", "align"),
        "cache_key": False,  # non-semantic: never part of result identity
        "ring_key": False,  # ...nor of routing
        "group_key": False,  # ...and never splits an engine batch
        "keyset": False,
        "cli_flag": "--trace",
        "doc": "distributed-trace id (non-semantic; see fragalign.obs)",
    },
    {
        "name": "span_id",
        "kind": "str",
        "ops": ("score", "align"),
        "cache_key": False,
        "ring_key": False,
        "group_key": False,
        "keyset": False,
        "cli_flag": "--trace",  # one flag turns both wire fields on
        "doc": "caller's span id — becomes the server span's parent",
    },
    # The end-to-end deadline (fragalign.resilience) is likewise
    # non-semantic: the remaining budget changes *whether* a request is
    # answered, never *what* the answer is, so every participation flag
    # is off — the analyzer proves a deadline can't split a batch or
    # poison a cache/ring key.
    {
        "name": "deadline_ms",
        "kind": "float",
        "ops": ("score", "align"),
        "cache_key": False,  # non-semantic: budget never changes the result
        "ring_key": False,  # ...nor where it is computed
        "group_key": False,  # ...and never splits an engine batch
        "keyset": False,
        "cli_flag": "--deadline-ms",
        "doc": "remaining end-to-end budget in ms (non-semantic; see fragalign.resilience)",
    },
)

REQUEST_FIELDS: tuple[FieldSpec, ...] = tuple(FieldSpec(**spec) for spec in _SPECS)
FIELD_NAMES: tuple[str, ...] = tuple(f.name for f in REQUEST_FIELDS)

_COERCE = {"str": str, "int": int, "float": float}


def cache_key_fields() -> tuple[str, ...]:
    """Fields of the server result-cache key, in registry order."""
    return tuple(f.name for f in REQUEST_FIELDS if f.cache_key)


def ring_key_fields() -> tuple[str, ...]:
    """Fields of the cluster routing key, in registry order."""
    return tuple(f.name for f in REQUEST_FIELDS if f.ring_key)


def group_key_fields() -> tuple[str, ...]:
    """Fields of the micro-batcher dispatch-group key, in registry order."""
    return tuple(f.name for f in REQUEST_FIELDS if f.group_key)


def keyset_fields() -> tuple[str, ...]:
    """Fields a warm-keyset entry may carry, in registry order."""
    return tuple(f.name for f in REQUEST_FIELDS if f.keyset)


def cli_flags() -> tuple[str, ...]:
    """The registered command-line flag spellings, in registry order."""
    return tuple(f.cli_flag for f in REQUEST_FIELDS)


def coerce(spec: FieldSpec, value):
    """Coerce a wire/keyset value to the field's registered kind."""
    return _COERCE[spec.kind](value)


# Routing must agree with caching, or the per-shard LRU caches stop
# being disjoint partitions of the keyspace (see cluster/ring.py).
assert cache_key_fields() == ring_key_fields(), (
    "ring-key fields must mirror cache-key fields"
)
