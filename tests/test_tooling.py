"""The benchmark's per-layer tracer patches engine names from outside.

`bench/run.py --trace 1` wraps every (module, owner, attribute) listed in
`bench/tracing.py`; a renamed or removed engine function would break it
without failing any engine test, so these tests resolve every entry. A
test keeps the engine free of `random`, as the README's determinism note
says, and one keeps its certificates free of bare `assert` statements,
which `python -O` strips. One keeps every engine function in use by the
engine itself or the tracer, so that no test-only code lives in `src/`,
one keeps the engine from building a normalizer subgroup only to read
its order or its elements, and one keeps every subgroup class made in one
place, with its canonical member as its representative.
The last five check `tools/`: every desk-scale group file builds to the
order it states, `tools/report_sweep.py` names exactly the files that are
there, it passes `--bound` on every line whose group is above the bound
its command obeys, it tables every file and reads one table back from its
cache, and the README states its counts of lines and of desk-scale
commands.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import nilweight.cli  # noqa: F401  (loads every engine module)
from nilweight.corpus import parse_group_file
from nilweight.groups import DEFAULT_BOUNDS

ROOT = Path(__file__).resolve().parent.parent
TRACING_PATH = ROOT / "bench" / "tracing.py"
GROUPS_DIR = ROOT / "tools" / "groups"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("nilweight_bench_tracing", TRACING_PATH)
ENTRIES = {**tracing.SPANS, **tracing.COUNTERS}


def _lookup(module, owner, attr):
    """What the tracer wraps: a module attribute, or an entry of a class's own dict."""
    mod = importlib.import_module(f"nilweight.{module}")
    if owner is None:
        return getattr(mod, attr, None)
    return vars(getattr(mod, owner, object)).get(attr)


def _current():
    return {name: _lookup(*where) for name, where in ENTRIES.items()}


def test_every_traced_name_resolves():
    assert [name for name, fn in _current().items() if not callable(fn)] == []


def test_install_wraps_every_entry_and_uninstall_restores_it():
    originals = _current()
    with tracing.Tracer():
        wrapped = [name for name, fn in _current().items() if fn is not originals[name]]
    assert sorted(wrapped) == sorted(ENTRIES)
    assert _current() == originals


def _imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_only_the_property_suite_imports_random():
    # the engine is deterministic: randomness is for the property suite's samples
    src = ROOT / "src" / "nilweight"
    users = sorted(p.name for p in src.rglob("*.py") if "random" in _imports(p))
    assert users == ["properties.py"]


def test_no_certificate_is_a_bare_assert():
    # `python -O` strips assert statements; every check in the engine raises
    src = ROOT / "src" / "nilweight"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_normalizer_is_built_for_its_order_or_elements():
    # |N_G(H)| is |G| over the length of H's orbit, and its element set is
    # `normalizer_elements`; a normalizer subgroup is built only to be used
    src = ROOT / "src" / "nilweight"

    def is_normalizer_call(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "normalizer"
        )

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr in ("order", "element_set")
        and is_normalizer_call(node.value)
    ]
    assert found == []


def _defined_functions(tree: ast.Module):
    """(owner, node) for every function in a module; owner is the class of a method."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((owner, child))
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                visit(child, owner)

    visit(tree, None)
    return out


def test_no_test_only_code_in_src():
    # every engine function is called by the engine or wrapped by the
    # benchmark's tracer; bruteforce.py holds the oracles the tests compare
    # against, and Python itself calls the dunder methods
    src = ROOT / "src" / "nilweight"
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    del trees["__init__"]
    # name -> (module, line) of each use; a method is used only as an attribute
    names, attributes = {}, {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append((module, node.lineno))
    traced = {(module, owner, attr) for module, owner, attr in ENTRIES.values()}
    unused = []
    for module, tree in trees.items():
        if module == "bruteforce":
            continue
        for owner, fn in _defined_functions(tree):
            name = fn.name
            if name.startswith("__") and name.endswith("__") or (module, owner, name) in traced:
                continue
            uses = attributes.get(name, []) + ([] if owner else names.get(name, []))
            inside = range(fn.lineno, fn.end_lineno + 1)
            if all(m == module and line in inside for m, line in uses):
                unused.append(f"{module}.{owner + '.' if owner else ''}{name}")
    assert unused == []


def _calls(node, name):
    """The calls under `node` of a function or method named `name`."""
    return [
        n
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
    ]


def test_a_subgroup_class_is_made_only_by_the_collector():
    # a class's representative is its canonical member, built by
    # `_ClassCollector.add` alone; no class is copied onto another subgroup
    src = ROOT / "src" / "nilweight"
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    made = [
        f"{name}:{call.lineno}"
        for name, tree in trees.items()
        for call in _calls(tree, "SubgroupClass")
    ]
    (add,) = [
        fn
        for owner, fn in _defined_functions(trees["lattice.py"])
        if (owner, fn.name) == ("_ClassCollector", "add")
    ]
    assert len(made) == 1
    assert made == [f"lattice.py:{call.lineno}" for call in _calls(add, "SubgroupClass")]
    assert _calls(trees["lattice.py"], "replace") == []


def test_every_desk_scale_group_file_builds_to_its_stated_order():
    paths = sorted(GROUPS_DIR.glob("*.txt"))
    assert paths
    for path in paths:
        # parsing builds the group and raises unless it has the stated order
        assert parse_group_file(path.read_text()).expected_order is not None, path.name


def _sweep():
    return _load("nilweight_report_sweep", ROOT / "tools" / "report_sweep.py")


def test_report_sweep_names_every_group_file_and_no_other():
    named = {
        command[command.index("--group") + 1] for command in _sweep().desk_scale_commands()
    }
    assert named == {f"tools/groups/{p.name}" for p in GROUPS_DIR.glob("*.txt")}


def test_report_sweep_lifts_the_lattice_bound_above_it():
    # a line that hit the bound would fingerprint an exit-2 error message;
    # `chartab` needs only the table bound, every other command the lattice's
    lifted = set()
    for command in _sweep().desk_scale_commands():
        path = ROOT / command[command.index("--group") + 1]
        order = parse_group_file(path.read_text()).expected_order
        bound = DEFAULT_BOUNDS["table" if command[0] == "chartab" else "subgroup-lattice"]
        if order > bound:
            assert int(command[command.index("--bound") + 1]) >= order, command
            lifted.add(path.name)
    assert lifted == {"S3wrC4.txt", "S4wrC2xC3.txt", "S4wrC3.txt"}


def test_report_sweep_tables_every_group_file_and_reads_one_back():
    sweep = _sweep()
    commands = sweep.desk_scale_commands()
    tabled = {c[c.index("--group") + 1] for c in commands if c[0] == "chartab"}
    assert tabled == {f"tools/groups/{p.name}" for p in GROUPS_DIR.glob("*.txt")}
    # the last two lines write and then read one entry of a fresh cache directory
    cached = ["chartab", "--group", "tools/groups/S4wrC2xC3.txt", "--cache-dir", sweep.CACHE_DIR]
    assert commands[-2:] == [cached, cached]
    assert sum("--cache-dir" in c for c in commands) == 2
    # the count the sweep's docstring states
    assert len(sweep.sweep_commands(properties=False)) == 505


def test_readme_states_the_sweep_sizes():
    # the README's sweep paragraph counts the lines and desk-scale commands
    text = " ".join((ROOT / "README.md").read_text().split())
    sweep = _sweep()
    assert f"Then come {len(sweep.desk_scale_commands())} desk-scale commands" in text
    assert f"({len(sweep.sweep_commands(properties=False))} lines in all" in text
