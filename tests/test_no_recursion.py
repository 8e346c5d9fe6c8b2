"""No function in the package calls itself, directly or through other
functions of its own module, so no input depth can raise RecursionError."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zwcalc"


def _call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Each function (methods and nested defs included, by bare name) to
    the names it calls: ``f(...)``, ``self.f(...)`` or ``cls.f(...)``."""
    graph: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = graph.setdefault(node.name, set())
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if isinstance(f, ast.Name):
                calls.add(f.id)
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id in ("self", "cls")):
                calls.add(f.attr)
    return graph


def _recursive(graph: dict[str, set[str]]) -> list[str]:
    """The functions that reach themselves along the graph's edges."""
    found = []
    for name in graph:
        seen, todo = set(), list(graph[name])
        while todo:
            callee = todo.pop()
            if callee in seen or callee not in graph:
                continue
            seen.add(callee)
            todo += graph[callee]
        if name in seen:
            found.append(name)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_recurses(path):
    assert _recursive(_call_graph(ast.parse(path.read_text()))) == []


def test_the_guard_sees_direct_mutual_and_nested_recursion():
    source = '''
def direct(n):
    return direct(n - 1)

def ping(n):
    return pong(n)

def pong(n):
    return ping(n)

def outer(t):
    def go(u):
        return [go(v) for v in u]
    return go(t)

class Walker:
    def walk(self, u):
        return self.walk(u)

def flat(n):
    return sum(range(n))
'''
    assert _recursive(_call_graph(ast.parse(source))) == ["direct", "go", "ping", "pong", "walk"]
