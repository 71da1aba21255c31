"""ChainState is the only writer of zone records, and tree_cipher the only
builder of unchecked keys.

Outside ledger.py no library module touches a private of ChainState (or
of any name `state`), assigns a record's share or fragment, or assigns or
deletes an item of any `<x>.records`; inside it, new records are built only
where zones are stored and snapshots loaded. The decode memo relies on this:
ChainState's writers drop the memo entry of every zone they change.

RootedTree._make and CipherKey._make build a tree or key without its
checks; only tree_cipher.py may call them, on values it built itself.

Every parameter of every library function is read in its body: a knob
that changes nothing is a parameter to remove, not one to document.

Every public function and class of the library, and every public method
of a public class, has a caller: it is loaded (as a name, an attribute or
a from-import) elsewhere in the library than its own definition and the
package's re-exports, in a demo, in the benchmark harness or the tracer's
TARGETS, or in the acceptance tests. A name that only unit tests call is
code to delete, or a test helper to move into the tests; the allowlist
keeps the few that serve a stated contract without such a caller.
"""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

import pytest
from test_tracer_bindings import _load_tracer_module

import zoned_ledger

SRC = Path(zoned_ledger.__file__).parent
REPO = Path(__file__).resolve().parents[1]
RECORD_FIELDS = {"share", "fragment"}
KEY_TYPES = {"RootedTree", "CipherKey"}


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


def _targets(node):
    if isinstance(node, (ast.Assign, ast.Delete)):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        else:
            yield target


def _into_records(target):
    """Whether target is an item of some `<x>.records`, at any depth."""
    while isinstance(target, ast.Subscript):
        target = target.value
        if isinstance(target, ast.Attribute) and target.attr == "records":
            return True
    return False


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _chain_state_privates():
    """Private methods and attributes of ChainState, as ledger.py defines them."""
    cls = next(node for node in _tree("ledger.py").body
               if isinstance(node, ast.ClassDef) and node.name == "ChainState")
    names = {fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    names |= {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)}
    return {name for name in names if _is_private(name)}


def layering_violations(tree, privates=frozenset(_chain_state_privates())):
    """(line, text) for each access to a ChainState private, or to any private
    attribute of a name `state`, for each record-field write, and for each
    assignment or deletion of a record."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr) and (
                node.attr in privates
                or isinstance(node.value, ast.Name) and node.value.id == "state"):
            found.append((node.lineno, ast.unparse(node)))
        for target in _targets(node):
            if isinstance(target, ast.Attribute) and target.attr in RECORD_FIELDS:
                found.append((target.lineno, ast.unparse(target) + " = ..."))
            elif _into_records(target):
                found.append((target.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "ledger.py"))
def test_no_module_reaches_into_chain_state_or_its_records(name):
    assert layering_violations(_tree(name)) == []


def test_records_are_built_only_where_zones_are_stored_or_snapshots_loaded():
    builders = set()
    for fn in ast.walk(_tree("ledger.py")):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "PeerSlotRecord"):
                    builders.add(fn.name)
    assert builders == {"_store_zone", "snapshot_load"}


@pytest.mark.parametrize("source", [
    "state._encode_zone(members, payload, prev, rng, state.records[t])",
    "key_bytes, _ = chain._read_zone(t, z)",
    "ChainState._store_zone(chain, t, z, fragments, key_bytes, prev_hash, rng)",
    "rec.share = share",
    "recs[0].fragment, x = b'', 1",
    "rec.fragment += b'x'",
    "state.records[t][p] = rec",
    "del state.records[t][p]",
])
def test_the_check_catches_what_it_forbids(source):
    assert layering_violations(ast.parse(source))


def unchecked_key_builds(tree):
    """(line, text) for each use of RootedTree._make or CipherKey._make."""
    return [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_make"
            and (isinstance(node.value, ast.Name) and node.value.id in KEY_TYPES
                 or isinstance(node.value, ast.Attribute) and node.value.attr in KEY_TYPES)]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "tree_cipher.py"))
def test_only_tree_cipher_builds_keys_without_their_checks(name):
    assert unchecked_key_builds(_tree(name)) == []


@pytest.mark.parametrize("source", [
    "key = CipherKey._make((tree, flips, assignment))",
    "tree_cipher.RootedTree._make((parents, root))",
    "make = zoned_ledger.tree_cipher.CipherKey._make",
])
def test_the_key_check_catches_what_it_forbids(source):
    assert unchecked_key_builds(ast.parse(source))


def test_tree_cipher_is_where_keys_are_built_without_checks():
    assert unchecked_key_builds(_tree("tree_cipher.py"))


def unread_parameters(tree):
    """(line, function, parameter) for each parameter its function never reads."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            found += [(fn.lineno, getattr(fn, "name", "<lambda>"), p)
                      for p in params if p not in read]
    return found


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_every_parameter_is_read(name):
    assert unread_parameters(_tree(name)) == []


@pytest.mark.parametrize("source", [
    "def law(p_bits, fraction):\n    return 1 / fraction",
    "def f(x, *rest):\n    return x",
    "def f(x, *, width=64):\n    return x",
    "def f(x, **opts):\n    return x",
    "def f(self, x):\n    return x",
    "key = lambda pair: 0",
], ids=["positional", "varargs", "keyword_only", "kwargs", "self", "lambda"])
def test_the_parameter_check_catches_what_it_forbids(source):
    assert unread_parameters(ast.parse(source))


# name -> why it may stay without a caller
CALLER_ALLOWLIST = {
    "ledger.snapshot_save": "writes the chain's persisted form, whose malformed input "
                            "must raise SnapshotError (ROADMAP north star); the planned "
                            "recovery state machine round-trips through it",
    "ledger.snapshot_load": "reads that persisted form, and raises SnapshotError, never "
                            "a bare error, on a malformed snapshot (ROADMAP north star)",
}


def loaded_names(tree):
    """Counter of the names tree loads, as names, attributes and from-imports."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def public_definitions(tree):
    """(dotted name, node) for each public top-level function and class, and
    each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        yield f"{node.name}.{fn.name}", fn


def uncalled_names(library, outside):
    """module.name for each public definition in library ({module: tree}) that
    no library module loads outside its own definition, and that is not in
    outside (the names loaded beyond the library). __init__ re-exports count
    for nothing."""
    library = {module: tree for module, tree in library.items() if module != "__init__"}
    everywhere = sum((loaded_names(tree) for tree in library.values()), Counter())
    found = []
    for module, tree in library.items():
        for name, node in public_definitions(tree):
            short = name.rpartition(".")[2]
            if short not in outside and everywhere[short] <= loaded_names(node)[short]:
                found.append(f"{module}.{name}")
    return found


@cache
def library_uncalled_names():
    outside = set()
    for path in [*REPO.glob("demos/*.py"), *REPO.glob("perfbench/*.py"),
                 REPO / "tests" / "test_acceptance.py"]:
        outside |= set(loaded_names(ast.parse(path.read_text(encoding="utf-8"))))
    for _, path in _load_tracer_module().TARGETS.values():
        outside |= set(path.split("."))
    return uncalled_names({p.stem: _tree(p.name) for p in SRC.glob("*.py")}, outside)


def test_every_public_name_has_a_caller():
    assert [name for name in library_uncalled_names() if name not in CALLER_ALLOWLIST] == []


def test_no_allowlisted_name_has_a_caller():
    assert [name for name in CALLER_ALLOWLIST if name not in library_uncalled_names()] == []


@pytest.mark.parametrize("library,outside,uncalled", [
    ({"m": "def walk(n):\n    return walk(n - 1)"}, "", "m.walk"),
    ({"m": "def f():\n    pass", "__init__": "from .m import f\n__all__ = ['f']"}, "", "m.f"),
    ({"m": "class C:\n    def run(self):\n        pass\nC()"}, "", "m.C.run"),
    ({"m": "def f():\n    pass"}, "# f is unused\nprint('f', 'm.f')", "m.f"),
], ids=["own_body_only", "init_reexport_only", "uncalled_method", "string_or_comment_only"])
def test_the_caller_check_catches_what_it_forbids(library, outside, uncalled):
    trees = {module: ast.parse(source) for module, source in library.items()}
    assert uncalled in uncalled_names(trees, set(loaded_names(ast.parse(outside))))
