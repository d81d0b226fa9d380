"""Every top-level function, class and assigned name in `src/investgame`, and
every method of those classes, is run or read by a command, or is a named
reference that tests or the benchmark use; dunder names are exempt.

The reachability is by name over the source's syntax trees: starting from
`cli.main`, a reached definition reaches every top-level name its body
reads, through the module's own definitions, its `from .x import y`
imports and attributes of its `from . import x` modules.  A reached class
reaches its whole body.  A method of a reached or allowed class is reached
when reached or allowed code reads an attribute of its name; dunder
methods are exempt.  A method name that several classes share counts as
read for all of them.  Annotations are skipped, since they run nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "investgame"

#: Names no command reaches, kept on purpose: {"module.name": reason}.
ALLOWED = {
    "geometry.sample_points": "sampler of S behind the region and certificate tests",
    "lyapunov.support_value": "scalar reference of lyapunov._support",
    "stage_game.permute": "player permutation of the symmetry tests",
    "lyapunov.entrapment_check": "acceptance Lyapunov criterion",
    "lyapunov.EntrapmentReport": "report of entrapment_check",
    "approachability.premise_start": "acceptance decay criterion; the benchmark's certify workload",
    "approachability.decay_bound_check": "acceptance decay criterion; the benchmark's certify workload",
    "approachability.DecayReport": "report of decay_bound_check",
    "approachability.ProximalOracle.project": "one-row case the oracle and certificate-reference tests read",
    "stage_game.VertexSet.labeled": "vertices by label; the benchmark's certify workload reads its start",
    "stage_game.PayoffVector": "type alias, read only by annotations, which the walk skips",
    "stage_game.ActionProfile": "type alias, read only by annotations, which the walk skips",
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _top_level(tree: ast.Module) -> dict[str, ast.AST]:
    """The module's top-level definitions and assigned names, by name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and node.value:
            out[node.target.id] = node.value
    return out


def _assigned() -> set[str]:
    """The names that top-level assignments bind, as "module.name"; dunder
    names are exempt."""
    return {f"{mod}.{name}" for mod, tree in _modules().items() for name, node in _top_level(tree).items()
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (name.startswith("__") and name.endswith("__"))}


def _imports(tree: ast.Module) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """Names bound by relative imports anywhere in the module: (name ->
    (module, name)) for `from .x import y`, (name -> module) for `from . import x`."""
    names, mods = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None:
                    mods[bound] = alias.name
                else:
                    names[bound] = (node.module, alias.name)
    return names, mods


def _read_names(node: ast.AST):
    """(Name id, None) and (base, attr) pairs that node's code reads, base None
    when the attribute's value is not a name; annotations skipped."""
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, ast.Name):
            yield cur.id, None
        elif isinstance(cur, ast.Attribute):
            yield (cur.value.id if isinstance(cur.value, ast.Name) else None), cur.attr
        for field, value in ast.iter_fields(cur):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    stack.append(child)


def reachable() -> set[str]:
    """The top-level names `cli.main` reaches, as "module.name"."""
    trees = _modules()
    defs = {m: _top_level(t) for m, t in trees.items()}
    imports = {m: _imports(t) for m, t in trees.items()}
    seen, todo = set(), ["cli.main"]
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        mod, name = key.split(".", 1)
        names, mods = imports[mod]
        for base, attr in _read_names(defs[mod][name]):
            if attr is None and base in defs[mod]:
                todo.append(f"{mod}.{base}")
            elif attr is None and base in names and names[base][1] in defs.get(names[base][0], {}):
                todo.append(".".join(names[base]))
            elif attr is not None and base in mods and attr in defs.get(mods[base], {}):
                todo.append(f"{mods[base]}.{attr}")
    return seen


def test_every_function_and_class_is_run_or_allowed():
    trees = _modules()
    run = reachable()
    orphans = sorted(
        f"{mod}.{node.name}"
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and f"{mod}.{node.name}" not in run
    )
    assert [name for name in orphans if name not in ALLOWED] == []
    # an entry that a command now reaches, or that no longer exists, goes
    assert sorted(k for k in ALLOWED if k.count(".") == 1 and k not in _assigned()) == orphans


def test_every_module_level_name_is_read_or_allowed():
    names = _assigned()
    orphans = sorted(names - reachable())
    assert [name for name in orphans if name not in ALLOWED] == []
    assert sorted(k for k in ALLOWED if k in names) == orphans


def test_every_method_is_read_or_allowed():
    defs = {m: _top_level(t) for m, t in _modules().items()}
    code = {key: defs[key.split(".")[0]][key.split(".")[1]]
            for key in reachable() | {k for k in ALLOWED if k.count(".") == 1}}
    read = {attr for node in code.values() for _, attr in _read_names(node) if attr}
    orphans = sorted(
        f"{key}.{node.name}"
        for key, cls in code.items()
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    )
    assert [name for name in orphans if name not in ALLOWED] == []
    assert sorted(k for k in ALLOWED if k.count(".") == 2) == orphans
