"""knob-propagation: every layer covers exactly the registered fields.

The request schema lives once, in ``service/fields.py`` (``_SPECS``, a
pure literal this rule parses without importing anything).  Each layer
that re-materializes the schema is a *site*; the rule verifies each
site covers the registered fields — and, for the key-builder sites,
covers them **exactly**, so deleting a field from the registry (or
adding an unregistered knob parameter to a key builder) fails the
check in both directions:

* ``service/protocol.py`` — ``parse_request`` and the frame parser
  ``parse_frame`` must each read every field off the wire
  (``obj.get("<field>")``, directly or through module-level helpers
  they call); the ``Request`` dataclass must carry exactly
  ``id/op/a/b`` plus the registered fields, and ``Frame`` exactly
  ``id/op/pairs`` plus the registered fields;
* ``service/batcher.py`` — ``MicroBatcher.submit`` takes exactly
  ``op/a/b`` plus the ``group_key`` fields, and the frame entry point
  ``submit_group`` exactly ``op/pairs`` plus the same fields;
* ``service/server.py`` — the ``cache_key`` method takes exactly
  ``op/a/b`` plus the ``cache_key`` fields;
* ``cluster/ring.py`` — ``ring_key`` takes exactly ``op/a/b`` (plus
  ``model_fp``/``default_mode`` structure) and the ``ring_key``
  fields, and the ``ring_key`` field set must equal the ``cache_key``
  set (routing must agree with caching);
* ``cluster/warm.py`` — ``generate_keyset`` parameters cover exactly
  the ``keyset`` fields beyond its structural knobs;
* ``cli.py`` — the serving verbs' ``add_argument`` calls (in
  ``build_parser`` and its ``_add_*`` helpers) define every registered
  ``cli_flag``.

Sites are only checked when their file exists under the analyzed root,
so fixture trees can exercise one site at a time.
"""

from __future__ import annotations

import ast

from fragalign.analysis.findings import Finding
from fragalign.analysis.project import FIELDS_MODULE, Project

ID = "knob-propagation"
DESCRIPTION = "request knobs must propagate exactly per the fields registry"

_REQUIRED_SPEC_KEYS = {
    "name", "kind", "ops", "cache_key", "ring_key", "group_key", "keyset",
    "cli_flag", "doc",
}


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return {n for n in names if n != "self"}


def _find_def(tree: ast.Module, name: str, method: bool = False):
    """A def by name: module-level, or (``method=True``) inside any
    class.  Returns the node or None."""
    if method:
        scopes = [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    else:
        scopes = [tree.body]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == name:
                    return node
    return None


_PARSERS = ("parse_request", "parse_frame")


def _wire_reads(tree: ast.Module, parser) -> set[str]:
    """Field names a parser reads off the wire (``obj.get("<field>")``),
    directly or through the module-level helpers it calls — but not
    through the other parser, which is checked on its own."""
    helpers = {
        n.name: n for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    read: set[str] = set()
    seen: set[str] = set(_PARSERS)
    todo = [parser]
    while todo:
        for node in ast.walk(todo.pop()):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                read.add(node.args[0].value)
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in helpers
                and node.func.id not in seen
            ):
                seen.add(node.func.id)
                todo.append(helpers[node.func.id])
    return read


def _exactness(
    findings: list[Finding],
    path: str,
    node,
    symbol: str,
    have: set[str],
    required: set[str],
    structural: set[str],
    what: str,
) -> None:
    """Report both drift directions for one site."""
    for name in sorted(required - have):
        findings.append(
            Finding(
                rule=ID, path=path, line=node.lineno, symbol=symbol,
                message=f"missing registered field {name!r} in {what}",
            )
        )
    for name in sorted(have - required - structural):
        findings.append(
            Finding(
                rule=ID, path=path, line=node.lineno, symbol=symbol,
                message=(
                    f"{name!r} in {what} is not a registered request field "
                    "(register it in service/fields.py or remove it)"
                ),
            )
        )


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    specs = project.load_field_registry()
    fields_path = project.file(FIELDS_MODULE)
    if specs is None:
        if fields_path is not None or project.file("service/protocol.py") is not None:
            findings.append(
                Finding(
                    rule=ID, path=FIELDS_MODULE, line=0, symbol="_SPECS",
                    message=(
                        "service/fields.py must define the _SPECS registry as a "
                        "pure literal tuple of dicts"
                    ),
                )
            )
        return findings

    for k, spec in enumerate(specs):
        missing = _REQUIRED_SPEC_KEYS - set(spec)
        if missing:
            findings.append(
                Finding(
                    rule=ID, path=FIELDS_MODULE, line=0,
                    symbol=str(spec.get("name", f"_SPECS[{k}]")),
                    message=f"registry entry missing keys {sorted(missing)}",
                )
            )
    specs = [s for s in specs if not (_REQUIRED_SPEC_KEYS - set(s))]

    names = {s["name"] for s in specs}
    cache_fields = {s["name"] for s in specs if s["cache_key"]}
    ring_fields = {s["name"] for s in specs if s["ring_key"]}
    group_fields = {s["name"] for s in specs if s["group_key"]}
    keyset_fields = {s["name"] for s in specs if s["keyset"]}
    flags = {s["cli_flag"] for s in specs}

    if cache_fields != ring_fields:
        findings.append(
            Finding(
                rule=ID, path=FIELDS_MODULE, line=0, symbol="_SPECS",
                message=(
                    "ring_key fields must mirror cache_key fields "
                    f"(cache {sorted(cache_fields)} vs ring {sorted(ring_fields)}): "
                    "routing must agree with caching"
                ),
            )
        )

    # -- site: protocol parsers + Request/Frame -------------------------
    path = project.file("service/protocol.py")
    if path is not None:
        tree = project.tree(path)
        relpath = project.relpath(path)
        for parser in _PARSERS:
            node = _find_def(tree, parser)
            if node is None:
                findings.append(
                    Finding(
                        rule=ID, path=relpath, line=0, symbol=parser,
                        message=f"service/protocol.py must define {parser}",
                    )
                )
                continue
            read = _wire_reads(tree, node)
            for name in sorted(names - read):
                findings.append(
                    Finding(
                        rule=ID, path=relpath, line=node.lineno, symbol=parser,
                        message=(
                            f"registered field {name!r} is never read off the wire "
                            "(no obj.get call)"
                        ),
                    )
                )
        for cls, structural in (("Request", {"id", "op", "a", "b"}),
                                ("Frame", {"id", "op", "pairs"})):
            node = next(
                (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls),
                None,
            )
            if node is not None:
                declared = {
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                }
                _exactness(
                    findings, relpath, node, cls,
                    declared, names, structural, f"the {cls} dataclass",
                )

    # -- site: batcher group key --------------------------------------
    path = project.file("service/batcher.py")
    if path is not None:
        tree = project.tree(path)
        relpath = project.relpath(path)
        for method, structural in (("submit", {"op", "a", "b"}),
                                   ("submit_group", {"op", "pairs"})):
            node = _find_def(tree, method, method=True)
            if node is None:
                findings.append(
                    Finding(
                        rule=ID, path=relpath, line=0, symbol=f"MicroBatcher.{method}",
                        message=f"service/batcher.py must define a {method} method",
                    )
                )
                continue
            _exactness(
                findings, relpath, node, f"MicroBatcher.{method}",
                _param_names(node), group_fields, structural,
                f"the batch-group key ({method} parameters)",
            )

    # -- site: server result-cache key --------------------------------
    path = project.file("service/server.py")
    if path is not None:
        tree = project.tree(path)
        relpath = project.relpath(path)
        cache_key = _find_def(tree, "cache_key", method=True)
        if cache_key is None:
            findings.append(
                Finding(
                    rule=ID, path=relpath, line=0, symbol="cache_key",
                    message="service/server.py must define a cache_key method",
                )
            )
        else:
            _exactness(
                findings, relpath, cache_key, "cache_key",
                _param_names(cache_key), cache_fields, {"op", "a", "b"},
                "the result-cache key (cache_key parameters)",
            )

    # -- site: cluster routing key ------------------------------------
    path = project.file("cluster/ring.py")
    if path is not None:
        tree = project.tree(path)
        relpath = project.relpath(path)
        ring = _find_def(tree, "ring_key")
        if ring is None:
            findings.append(
                Finding(
                    rule=ID, path=relpath, line=0, symbol="ring_key",
                    message="cluster/ring.py must define ring_key",
                )
            )
        else:
            _exactness(
                findings, relpath, ring, "ring_key",
                _param_names(ring), ring_fields,
                {"op", "a", "b", "model_fp", "default_mode"},
                "the routing key (ring_key parameters)",
            )

    # -- site: warm keysets -------------------------------------------
    path = project.file("cluster/warm.py")
    if path is not None:
        tree = project.tree(path)
        relpath = project.relpath(path)
        generate = _find_def(tree, "generate_keyset")
        if generate is None:
            findings.append(
                Finding(
                    rule=ID, path=relpath, line=0, symbol="generate_keyset",
                    message="cluster/warm.py must define generate_keyset",
                )
            )
        else:
            _exactness(
                findings, relpath, generate, "generate_keyset",
                _param_names(generate), keyset_fields, {"n", "length", "seed", "op"},
                "the keyset generator (generate_keyset parameters)",
            )

    # -- site: CLI flags ----------------------------------------------
    path = project.file("cli.py")
    if path is not None:
        tree = project.tree(path)
        relpath = project.relpath(path)
        build = _find_def(tree, "build_parser")
        if build is not None:
            defined: set[str] = set()
            scopes = [build] + [
                n
                for n in tree.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and n.name.startswith("_add")
            ]
            for scope in scopes:
                for node in ast.walk(scope):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "add_argument"
                        and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)
                    ):
                        defined.add(node.args[0].value)
            for flag in sorted(flags - defined):
                findings.append(
                    Finding(
                        rule=ID, path=relpath, line=build.lineno, symbol="build_parser",
                        message=(
                            f"registered CLI flag {flag!r} is not defined by "
                            "build_parser (or its _add_* helpers)"
                        ),
                    )
                )
    return findings
