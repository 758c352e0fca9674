"""The GASPI capability manifest (FT011).

The ROADMAP's backend-portability item needs to know, precisely, which
slice of the GASPI surface the application layers actually touch — the
~15 operations a second backend would have to provide.  Rather than
maintain that list by hand, this module machine-extracts it:

* :func:`extract_context_api` parses ``repro/gaspi/context.py`` and
  types every public :class:`GaspiContext` method (blocking generator
  vs. plain call, protocol category, parameter names);
* :func:`extract_usage` scans the four consumer packages (``ft``,
  ``spmvm``, ``checkpoint``, ``workloads``) for calls on a context
  receiver and records who uses what;
* :func:`build_manifest` joins the two into ``capability_manifest.json``
  — deterministic (sorted keys, sorted users) so regeneration is a
  no-op on an unchanged tree and any diff is real drift.

Rule **FT011** then closes the loop statically: a context call in a
consumer package that is missing from the committed manifest (a new
capability, or a package newly adopting one) fails the lint until the
manifest is regenerated — which is exactly the review moment the
multi-backend refactor wants to see.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.ftlint.core import (FileContext, Finding, Rule,
                                        iter_python_files, register)
from repro.analysis.ftlint.flowrules import _is_ctx_call
from repro.analysis.ftlint.rules import _path_in

MANIFEST_NAME = "capability_manifest.json"

#: the packages whose GASPI usage the manifest records
CONSUMER_PACKAGES = ("ft", "spmvm", "checkpoint", "workloads")

_CATEGORIES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("collective", ("barrier", "allreduce", "lockstep")),
    ("group", ("group_create", "group_add", "group_add_many", "group_fill",
               "group_commit", "group_delete")),
    ("posting", ("write", "read", "write_list", "read_list", "write_notify",
                 "write_list_notify", "write_round", "notify")),
    ("notification", ("notify_waitsome", "notify_reset",
                      "notify_reset_many")),
    ("queue", ("wait", "drain_event", "queue_purge", "queue_depth")),
    ("segment", ("segment_create", "segment_delete", "segment",
                 "segment_view", "atomic_fetch_add", "atomic_compare_swap")),
    ("proc", ("proc_ping", "proc_kill", "proc_rank", "proc_num")),
    ("passive", ("passive_send", "passive_receive")),
)


def _category(name: str) -> str:
    for category, members in _CATEGORIES:
        if name in members:
            return category
    prefix = name.split("_", 1)[0]
    for category, members in _CATEGORIES:
        if any(member.startswith(prefix) for member in members):
            return category
    return "local"


def _has_yield(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def extract_context_api(context_source: str) -> Dict[str, Dict[str, object]]:
    """Public ``GaspiContext`` methods, typed for the manifest."""
    tree = ast.parse(context_source)
    api: Dict[str, Dict[str, object]] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name == "GaspiContext"):
            continue
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name.startswith("_"):
                continue
            params = [a.arg for a in item.args.args if a.arg != "self"]
            params += [a.arg for a in item.args.kwonlyargs]
            api[item.name] = {
                "kind": "generator" if _has_yield(item) else "plain",
                "category": _category(item.name),
                "params": params,
            }
    return api


def _package_of(display_path: str) -> Optional[str]:
    """``src/repro/ft/app.py`` -> ``repro.ft`` (consumers only)."""
    parts = Path(display_path).parts
    if "repro" in parts:
        idx = parts.index("repro")
        if idx + 1 < len(parts) - 1 and parts[idx + 1] in CONSUMER_PACKAGES:
            return f"repro.{parts[idx + 1]}"
    return None


def extract_usage(root: Path) -> Dict[str, List[str]]:
    """Context ops used per consumer package: ``{op: [package, ...]}``."""
    usage: Dict[str, set] = {}
    for pkg in CONSUMER_PACKAGES:
        pkg_dir = root / "src" / "repro" / pkg
        if not pkg_dir.is_dir():
            continue
        for path in iter_python_files([pkg_dir.as_posix()]):
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except SyntaxError:
                continue
            for sub in ast.walk(tree):
                if isinstance(sub, ast.Call):
                    op = _is_ctx_call(sub)
                    if op is not None:
                        usage.setdefault(op, set()).add(f"repro.{pkg}")
    return {op: sorted(pkgs) for op, pkgs in sorted(usage.items())}


def build_manifest(root: Path) -> Dict[str, object]:
    """The joined, deterministic capability manifest for ``root``."""
    context_path = root / "src" / "repro" / "gaspi" / "context.py"
    api = extract_context_api(context_path.read_text(encoding="utf-8"))
    usage = extract_usage(root)
    operations: Dict[str, Dict[str, object]] = {}
    for op, packages in usage.items():
        spec = api.get(op)
        operations[op] = {
            "kind": spec["kind"] if spec else "unknown",
            "category": spec["category"] if spec else "unknown",
            "params": spec["params"] if spec else [],
            "used_by": packages,
        }
    return {
        "schema": 1,
        "context": "repro.gaspi.context.GaspiContext",
        "operations": operations,
    }


def render_manifest(manifest: Dict[str, object]) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def write_manifest(root: Path, path: Optional[Path] = None) -> Path:
    target = path if path is not None else root / MANIFEST_NAME
    target.write_text(render_manifest(build_manifest(root)), encoding="utf-8")
    return target


def check_manifest(root: Path, path: Optional[Path] = None) -> List[str]:
    """Human-readable drift lines; empty means the manifest is current."""
    target = path if path is not None else root / MANIFEST_NAME
    if not target.exists():
        return [f"manifest {target} is missing — run ftlint --write-manifest"]
    try:
        committed = json.loads(target.read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"manifest {target} is unreadable: {exc}"]
    current = build_manifest(root)
    if committed == current:
        return []
    drift: List[str] = []
    old_ops = committed.get("operations", {})
    new_ops = current["operations"]
    assert isinstance(new_ops, dict)
    for op in sorted(set(old_ops) - set(new_ops)):
        drift.append(f"operation '{op}' is in the manifest but no longer used")
    for op in sorted(set(new_ops) - set(old_ops)):
        drift.append(f"operation '{op}' is used but missing from the manifest")
    for op in sorted(set(new_ops) & set(old_ops)):
        if old_ops[op] != new_ops[op]:
            drift.append(f"operation '{op}' drifted: committed "
                         f"{json.dumps(old_ops[op], sort_keys=True)} != "
                         f"current {json.dumps(new_ops[op], sort_keys=True)}")
    if not drift:  # pragma: no cover - top-level metadata drift only
        drift.append("manifest metadata drifted — regenerate")
    return drift


# ----------------------------------------------------------------------
# FT011 — capability-surface drift, per call site
# ----------------------------------------------------------------------
def _find_manifest_for(path: Path) -> Optional[Path]:
    try:
        resolved = path.resolve()
    except OSError:  # pragma: no cover - dangling paths
        return None
    for ancestor in resolved.parents:
        candidate = ancestor / MANIFEST_NAME
        if candidate.exists():
            return candidate
    return None


@register
class FT011CapabilityDrift(Rule):
    """Every context call in a consumer package must appear in the
    checked-in capability manifest, attributed to that package."""

    id = "FT011"
    title = "GASPI capability missing from capability_manifest.json"
    rationale = (
        "the manifest is the contract a second backend implements "
        "(ROADMAP portability item): a context call the manifest does "
        "not know about is an API expansion that must be reviewed and "
        "regenerated, not slipped in silently"
    )

    _SCOPES = tuple(f"src/repro/{pkg}/" for pkg in CONSUMER_PACKAGES)

    def __init__(self) -> None:
        self._cache: Dict[Path, Optional[Dict[str, object]]] = {}

    def applies_to(self, display_path: str) -> bool:
        return _path_in(display_path, self._SCOPES)

    def _manifest_for(self, path: Path) -> Optional[Dict[str, object]]:
        location = _find_manifest_for(path)
        if location is None:
            return None
        if location not in self._cache:
            try:
                self._cache[location] = json.loads(
                    location.read_text(encoding="utf-8"))
            except ValueError:
                self._cache[location] = None
        return self._cache[location]

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        manifest = self._manifest_for(ctx.path)
        if manifest is None:
            return
        operations = manifest.get("operations", {})
        if not isinstance(operations, dict):
            return
        package = _package_of(ctx.display_path)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            op = _is_ctx_call(node)
            if op is None:
                continue
            spec = operations.get(op)
            if spec is None:
                yield ctx.make_finding(
                    self.id, node,
                    f"context call '{op}' is not in the capability "
                    f"manifest — run ftlint --write-manifest and review "
                    f"the diff",
                )
            elif package is not None and \
                    package not in spec.get("used_by", []):
                yield ctx.make_finding(
                    self.id, node,
                    f"'{op}' is in the manifest but not attributed to "
                    f"{package} — run ftlint --write-manifest and review "
                    f"the diff",
                )
