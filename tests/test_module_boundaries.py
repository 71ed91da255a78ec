"""Module boundaries: no salient module reads another salient module's
private (`_`-prefixed, non-dunder) names. Tests may."""

import ast
from pathlib import Path

import salient

SRC = Path(salient.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path: Path) -> list:
    """`module.name` for each private name of another salient module that the
    file imports by name or reads as an attribute of an imported module."""
    tree = ast.parse(path.read_text())
    modules = {}  # local name -> salient module it is bound to
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import audio [as a]
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):  # from .audio import _name
                    reads.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and _private(node.attr):
                reads.append(f"{modules[node.value.id]}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    reads = {p.name: private_reads(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def _records(fn: ast.FunctionDef) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "_record" for n in ast.walk(fn))


def tape_ops() -> set:
    """The autodiff functions (`name`) and Tensor methods (`Tensor.name`)
    whose body records a tape entry (calls `Tape._record`)."""
    tree = ast.parse((SRC / "autodiff.py").read_text())
    tensor = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Tensor")
    ops = {f.name for f in tree.body if isinstance(f, ast.FunctionDef) and _records(f)}
    return ops | {f"Tensor.{f.name}" for f in tensor.body if isinstance(f, ast.FunctionDef) and _records(f)}


def op_calls(path: Path) -> set:
    """Names the file calls as autodiff functions (`ad.name(...)`, or a
    name imported from `.autodiff`), and as `Tensor.name` every method it
    calls on a value that is not an imported module (`seq.tanh()`, not
    `np.tanh(...)`)."""
    tree = ast.parse(path.read_text())
    modules, autodiff, imported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                if isinstance(node, ast.ImportFrom) and node.module == "autodiff" and node.level == 1:
                    imported.add(alias.name)
                elif isinstance(node, ast.Import) or node.module is None:
                    modules.add(local)
                    if alias.name == "autodiff":
                        autodiff.add(local)
    calls = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in imported:
            calls.add(f.id)
        elif isinstance(f, ast.Attribute):
            owner = f.value.id if isinstance(f.value, ast.Name) else None
            if owner in autodiff:
                calls.add(f.attr)
            elif owner not in modules:
                calls.add(f"Tensor.{f.attr}")
    return calls


def test_every_tape_op_has_a_caller_in_another_module():
    ops = tape_ops()
    assert {"dense", "sub", "lstm", "imq_mmd", "Tensor.tanh", "Tensor.sqnorm"} <= ops
    called = set().union(*(op_calls(p) for p in SRC.glob("*.py") if p.name != "autodiff.py"))
    assert sorted(ops - called) == []


def _callee(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def calls_of(tree: ast.AST, name: str) -> list:
    """The calls in `tree` of `name`, as `name(...)` or `x.name(...)`."""
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and _callee(n) == name]


def functions_calling(name: str) -> set:
    """`module.function` for each function of the package that calls `name`
    in its own body (a call in a nested function counts for the nested one;
    a module-level call for `module.<module>`)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _callee(child) == name:
                found.add(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{owner.split('.')[0]}.{child.name}" if inner else owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}.<module>")
    return found


def test_one_function_computes_the_lstm_gates():
    # the gate arithmetic is tanh's: besides the tape's tanh op and the
    # fully connected layers, only lstm_forward calls it, and training's tape
    # op and tape-free inference both run that one LSTM forward
    assert functions_calling("expit") == set()
    assert functions_calling("tanh") == {"autodiff.tanh", "autodiff.lstm_forward", "model._fc_stack"}
    assert functions_calling("lstm_forward") == {"autodiff.lstm", "model._lstm_stack"}


def test_inference_builds_no_tape():
    tree = ast.parse((SRC / "model.py").read_text())
    run_sequence = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_run_sequence")
    assert calls_of(run_sequence, "Tape") == []
    assert calls_of(ast.parse((SRC / "inference.py").read_text()), "Tape") == []


def test_only_parameters_become_leaves():
    # constants enter ops as arrays, so the tape's leaves are the values
    # differentiated against: the model's parameters, or the point of a
    # finite-difference check
    assert functions_calling("leaf") == {"model.param_leaves", "autodiff._ad_gradient", "autodiff.eval_at"}
