"""RL002 — shared-memory lifecycle: every created segment has an owner.

A ``SharedMemory(create=True)`` allocates a named POSIX segment that
outlives the process unless somebody calls ``unlink()`` — a crashed sweep
that skipped cleanup leaves orphans in ``/dev/shm`` that CI (and
operators) have to hunt down.  The repo's contract (DESIGN.md "Shared
trace plane") is that the *creating function* pins the lifecycle: the
creation must sit inside a ``with`` block, or the same function must
contain an ``.unlink()`` call in a ``try``/``finally``.

The owner modules (``core/shm.py``, ``core/engine.py``) intentionally
*transfer* ownership — ``share_context`` hands the live segment to
``SharedSiteContext``, whose ``unlink`` the engine's cleanup calls in a
``finally``.  That shape is invisible to this file-local rule, so those
modules are excluded here and policed by RL010 instead, which follows
the transfer through the project call graph and verifies the receiving
class really unlinks.  A blanket suppression is no longer needed — or
accepted — for them.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Union

from ..findings import Finding, SourceFile
from .base import ImportAliases, Rule

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Module]


def _is_create_call(node: ast.Call, aliases: ImportAliases) -> bool:
    """Whether ``node`` is ``SharedMemory(..., create=True, ...)``."""
    callee = aliases.resolve_call(node)
    if callee is None or callee.split(".")[-1] != "SharedMemory":
        return False
    for keyword in node.keywords:
        if keyword.arg == "create":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is True
    return False


def _scope_statements(scope: _FunctionNode) -> Iterator[ast.AST]:
    """Every node of ``scope``'s own body, not descending into nested defs."""
    stack: List[ast.AST] = list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # nested scopes own their creations
        stack.extend(ast.iter_child_nodes(node))


def _has_finally_unlink(scope: _FunctionNode) -> bool:
    """Whether the scope contains a ``finally`` block calling ``.unlink()``."""
    for node in _scope_statements(scope):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for final_stmt in node.finalbody:
            for sub in ast.walk(final_stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "unlink"
                ):
                    return True
    return False


def _with_managed_calls(scope: _FunctionNode) -> List[ast.Call]:
    """Calls used directly as ``with`` context expressions in the scope."""
    managed: List[ast.Call] = []
    for node in _scope_statements(scope):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    managed.append(expr)
    return managed


class ShmLifecycleRule(Rule):
    code = "RL002"
    name = "shm-lifecycle"
    description = (
        "SharedMemory(create=True) requires a matching unlink() in a "
        "finally block or context manager in the same function "
        "(owner modules are policed by RL010 instead)"
    )

    def applies_to(self, file: SourceFile) -> bool:
        from ..graph.facts import module_name_for_path
        from .shm_ownership import is_owner_module

        return not is_owner_module(module_name_for_path(file.path))

    def check(self, file: SourceFile) -> Iterator[Finding]:
        aliases = ImportAliases(file.tree)
        scopes: List[_FunctionNode] = [file.tree]
        scopes.extend(
            node
            for node in ast.walk(file.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            creations = [
                node
                for node in _scope_statements(scope)
                if isinstance(node, ast.Call) and _is_create_call(node, aliases)
            ]
            if not creations:
                continue
            managed = _with_managed_calls(scope)
            covered = _has_finally_unlink(scope)
            for call in creations:
                if call in managed or covered:
                    continue
                owner = (
                    scope.name
                    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
                    else "<module>"
                )
                yield self.finding(
                    file,
                    call,
                    "SharedMemory(create=True) in "
                    f"{owner!r} has no unlink() in a finally block or "
                    "context manager; the segment would leak into /dev/shm "
                    "on an exception",
                )
