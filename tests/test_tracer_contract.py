"""The benchmark's tracer wraps package functions by name; every name it
lists must still exist in the package.  And the package ships only what
runs: every top-level function, class and constant is used by other code,
every parameter, in the package or its scripts, is read by its
function, and every dataclass checks its input."""

import ast
import importlib
from pathlib import Path

import hiddenpartition

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def tracer_targets() -> dict:
    """TARGETS of perfbench/tracer.py, read from its source, not imported."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


def test_tracer_targets_resolve_to_callables():
    targets = tracer_targets()
    assert targets
    for module_name, names in targets.items():
        module = importlib.import_module(f"hiddenpartition.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"hiddenpartition.{module_name}.{name}"


def test_public_names_resolve():
    for name in hiddenpartition.__all__:
        assert hasattr(hiddenpartition, name), name


def referenced_names(tree: ast.AST) -> set:
    """Every name the code under ``tree`` loads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def assigned_names(node: ast.Assign) -> list:
    """The non-dunder names a top-level assignment binds: its Name targets
    and the Names inside its Tuple targets."""
    items = [item for target in node.targets
             for item in (target.elts if isinstance(target, ast.Tuple) else [target])]
    return [item.id for item in items if isinstance(item, ast.Name) and not item.id.startswith("__")]


def test_every_top_level_definition_is_used():
    # a top-level function, class or constant counts as used when code other
    # than its own body or assignment names it (in src or scripts), when it is
    # public API (__all__), or when the tracer wraps it; a method other than a
    # dunder, when code other than its own body names it; an import alone is
    # not a use
    package = sorted((ROOT / "src" / "hiddenpartition").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*package, *sorted((ROOT / "scripts").glob("*.py"))]}
    file_uses = {path: referenced_names(tree) for path, tree in trees.items()}
    kept = set(hiddenpartition.__all__).union(*tracer_targets().values())
    unused = []
    for path in package:
        body = trees[path].body
        node_uses = [referenced_names(node) for node in body]
        elsewhere = set().union(*(uses for other, uses in file_uses.items() if other != path))
        for k, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = assigned_names(node)
            else:
                continue
            here = set().union(*node_uses[:k], *node_uses[k + 1 :])
            unused += [f"{path.name}:{name}" for name in names if name not in kept | here | elsewhere]
            if isinstance(node, ast.ClassDef):
                member_uses = [referenced_names(member) for member in node.body]
                for j, member in enumerate(node.body):
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                        around = here.union(*member_uses[:j], *member_uses[j + 1 :])
                        if member.name not in around | elsewhere:
                            unused.append(f"{path.name}:{node.name}.{member.name}")
    assert not unused, f"defined but never used: {unused}"


def test_every_dataclass_validates_its_input():
    # @dataclass generates and compiles its methods in every process; a
    # type earns it only by checking or normalising its fields in
    # __post_init__, and a record that only carries values is a NamedTuple
    plain = []
    for path in sorted((ROOT / "src" / "hiddenpartition").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) or not any(
                "dataclass" in referenced_names(decorator) for decorator in node.decorator_list
            ):
                continue
            methods = {member.name for member in node.body if isinstance(member, ast.FunctionDef)}
            if "__post_init__" not in methods:
                plain.append(f"{path.name}:{node.name}")
    assert not plain, f"dataclasses that check nothing: {plain}"


def test_every_parameter_is_read():
    # a parameter of a function or lambda counts as read when its body
    # (nested functions included) loads the name; one that is only passed
    # along a chain of calls and never read is dead weight on every caller;
    # the scripts are held to the same rule as the package
    unread = []
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    for path in [*sorted((ROOT / "src" / "hiddenpartition").glob("*.py")), *scripts]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *(arg for arg in (args.vararg, args.kwarg) if arg is not None)]
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {name.id for statement in body for name in ast.walk(statement)
                      if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno}:{getattr(node, 'name', 'lambda')}({param.arg})"
                       for param in params if param.arg not in loaded]
    assert not unread, f"parameters never read: {unread}"
