"""Static call graph over the checked file set.

Edges are :class:`CallSite` records — *who* calls *whom* from *where*
— resolved through the project symbol table.  Resolution is
deliberately conservative:

* only targets defined inside the checked files become edges; calls
  into the stdlib or third-party code terminate chains;
* ``self.meth()`` resolves through the caller's class MRO;
* ``self.attr.meth()`` and ``param.meth()`` resolve through annotated
  attribute/parameter types;
* when the annotated type is one of the registered dispatch ABCs
  (``dispatch-abcs`` in ``[tool.reprolint]`` — the ``Scheduler``
  plugin point), the call fans out to *every*
  project implementation of that method, which is the sound
  over-approximation for registry-driven dynamic dispatch;
* constructor calls (``SomeClass(...)``) edge into ``__init__``.

Top-level module code is modelled as a ``<module>`` pseudo-function,
so an import-time call chain is as visible as a runtime one.  Nested
``def``\\ s are attributed to their enclosing top-level function:
reprolint cannot prove a closure is never invoked, so its calls count
against the function that created it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lintkit.symbols import (
    MODULE_FUNC,
    ClassInfo,
    FunctionInfo,
    Project,
)

__all__ = [
    "CallGraph",
    "CallSite",
    "build_callgraph",
    "callgraph_for",
    "iter_calls",
    "resolve_call_target",
]


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge: ``caller`` invokes ``callee``."""

    caller: str
    callee: str
    line: int
    col: int


class CallGraph:
    """Adjacency over :class:`CallSite` edges, both directions."""

    def __init__(self, sites: list[CallSite]) -> None:
        self.sites: tuple[CallSite, ...] = tuple(sites)
        outgoing: dict[str, list[CallSite]] = {}
        incoming: dict[str, list[CallSite]] = {}
        for site in sites:
            outgoing.setdefault(site.caller, []).append(site)
            incoming.setdefault(site.callee, []).append(site)
        self.outgoing: dict[str, tuple[CallSite, ...]] = {
            k: tuple(v) for k, v in outgoing.items()
        }
        self.incoming: dict[str, tuple[CallSite, ...]] = {
            k: tuple(v) for k, v in incoming.items()
        }

    def calls_from(self, qualname: str) -> tuple[CallSite, ...]:
        """Edges leaving ``qualname``."""
        return self.outgoing.get(qualname, ())

    def calls_to(self, qualname: str) -> tuple[CallSite, ...]:
        """Edges arriving at ``qualname``."""
        return self.incoming.get(qualname, ())


def iter_calls(fn: FunctionInfo) -> Iterator[ast.Call]:
    """Every ``ast.Call`` belonging to ``fn``, in deterministic order.

    For a real function the whole subtree counts (nested defs have no
    FunctionInfo of their own).  For the ``<module>`` pseudo-function
    the walk skips function and method bodies — those belong to their
    own nodes — but keeps class-body top-level code, which runs at
    import time.
    """
    if fn.name != MODULE_FUNC:
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                yield node
        return
    stack: list[ast.AST] = list(reversed(fn.node.body))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _receiver_types(
    project: Project, fn: FunctionInfo, func: ast.Attribute
) -> tuple[str, ...]:
    """Candidate type refs of the receiver of ``<recv>.meth(...)``."""
    table = project.symbols
    recv = func.value
    # param.meth(...) — annotated parameter of the enclosing function.
    if isinstance(recv, ast.Name):
        return fn.param_types.get(recv.id, ())
    # self.attr.meth(...) — annotated attribute through the class MRO.
    if (
        isinstance(recv, ast.Attribute)
        and isinstance(recv.value, ast.Name)
        and recv.value.id == "self"
        and fn.cls is not None
    ):
        for cls in table.mro(fn.cls):
            refs = cls.attr_types.get(recv.attr)
            if refs:
                return refs
    return ()


def _dispatch_targets(
    project: Project, class_ref: str, method: str
) -> list[FunctionInfo]:
    """Methods a call on a ``class_ref``-typed receiver may reach."""
    table = project.symbols
    resolved = table.resolve(class_ref)
    if not isinstance(resolved, ClassInfo):
        return []
    targets: list[FunctionInfo] = []
    own = table.method_on(resolved.qualname, method)
    if own is not None:
        targets.append(own)
    if resolved.qualname in project.config.dispatch_abcs:
        for impl in table.implementations_of(resolved.qualname):
            hit = table.method_on(impl.qualname, method)
            if hit is not None and hit not in targets:
                targets.append(hit)
    return targets


def resolve_call_target(
    project: Project, fn: FunctionInfo, call: ast.Call
) -> list[FunctionInfo]:
    """Project-internal definitions one call may reach (possibly [])."""
    table = project.symbols
    func = call.func
    # self.meth(...) through the caller's own MRO.
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
        and fn.cls is not None
    ):
        hit = table.method_on(fn.cls, func.attr)
        return [hit] if hit is not None else []
    # Typed-receiver dispatch: param.meth(...) / self.attr.meth(...).
    if isinstance(func, ast.Attribute):
        targets: list[FunctionInfo] = []
        for ref in _receiver_types(project, fn, func):
            for hit in _dispatch_targets(project, ref, func.attr):
                if hit not in targets:
                    targets.append(hit)
        if targets:
            return targets
    # Plain dotted resolution through aliases and re-exports.
    dotted = fn.ctx.resolve_call(func)
    if dotted is None:
        return []
    resolved = None
    if "." not in dotted:
        resolved = table.resolve(f"{fn.module}.{dotted}")
    if resolved is None:
        resolved = table.resolve(dotted)
    if isinstance(resolved, FunctionInfo):
        return [resolved]
    if isinstance(resolved, ClassInfo):
        init = table.method_on(resolved.qualname, "__init__")
        return [init] if init is not None else []
    return []


def build_callgraph(project: Project) -> CallGraph:
    """Resolve every call in every function into a :class:`CallGraph`."""
    sites: list[CallSite] = []
    table = project.symbols
    for qualname in sorted(table.functions):
        fn = table.functions[qualname]
        for call in iter_calls(fn):
            for target in resolve_call_target(project, fn, call):
                sites.append(
                    CallSite(
                        caller=fn.qualname,
                        callee=target.qualname,
                        line=call.lineno,
                        col=call.col_offset + 1,
                    )
                )
    return CallGraph(sites)


def callgraph_for(project: Project) -> CallGraph:
    """The project's call graph, built once and cached."""
    graph = project.cache.get("callgraph")
    if not isinstance(graph, CallGraph):
        graph = build_callgraph(project)
        project.cache["callgraph"] = graph
    return graph
