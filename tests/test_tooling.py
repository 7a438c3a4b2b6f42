"""The benchmark's per-layer tracer patches engine names from outside.

`bench/run.py --trace 1` wraps every (module, owner, attribute) listed in
`bench/tracing.py`; a renamed or removed engine function would break it
without failing any engine test, so these tests resolve every entry. A
last test keeps the engine free of `random`, as the README's determinism
note says.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import nilweight.cli  # noqa: F401  (loads every engine module)

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("nilweight_bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
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
    src = TRACING_PATH.parent.parent / "src" / "nilweight"
    users = sorted(p.name for p in src.rglob("*.py") if "random" in _imports(p))
    assert users == ["properties.py"]
