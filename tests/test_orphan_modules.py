"""No module under ``src/repro`` that nothing imports.

A module passes if another ``src/repro`` module imports it, if a file
under ``bench/`` or ``benchmarks/`` imports it, or if it is an entry
point.  Its own package ``__init__`` re-exporting it does not count,
but ``from repro.pkg import Name`` counts for the module the package
took ``Name`` from.  ``tools/reachability.py`` is the measured form of
this check (it runs the entry points); this one is ``ast`` only and
keeps unreached modules from growing back between its runs.
"""

import ast
import pathlib
from typing import Dict, Iterator, Set

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Run as programs, so nothing needs to import them.
ENTRY_POINTS = {"repro.cli", "repro.experiments.report", "repro.api",
                "repro.version"}

#: Reached by a documented workflow rather than an import: module -> the
#: workflow that reaches it, one each.
ALLOWED: Dict[str, str] = {}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(tree: ast.AST) -> Iterator[str]:
    """``module`` and ``module.name`` for every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def _reexports(packages: Dict[str, ast.AST]) -> Dict[str, str]:
    """``package.Name`` -> the module a package ``__init__`` took it from."""
    out = {}
    for package, tree in packages.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    out[f"{package}.{alias.asname or alias.name}"] = node.module
    return out


def imported_modules() -> Dict[str, Set[str]]:
    """Module -> the set of files (``src`` modules or bench files) that
    import it, excluding its own package's ``__init__``."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.rglob("*.py"))}
    modules = {_module_name(path) for path in trees}
    packages = {_module_name(p): t for p, t in trees.items()
                if p.name == "__init__.py"}
    reexported = _reexports(packages)
    for directory in ("bench", "benchmarks"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            trees[path] = ast.parse(path.read_text(), str(path))
    importers: Dict[str, Set[str]] = {module: set() for module in modules}
    for path, tree in trees.items():
        here = _module_name(path) if SRC in path.parents else str(path)
        own_package = here if path.name == "__init__.py" else None
        for name in _imports(tree):
            target = name if name in modules else reexported.get(name)
            if target is None or target == here:
                continue
            if own_package is not None and target.startswith(own_package + "."):
                continue  # a package re-exporting its own module
            importers[target].add(here)
    return importers


def test_every_module_is_imported_or_an_entry_point():
    importers = imported_modules()
    orphans = sorted(
        module for module, by in importers.items()
        if not by and module not in ENTRY_POINTS and module not in ALLOWED
        and not (SRC / module.replace(".", "/") / "__init__.py").exists()
    )
    assert orphans == [], (
        f"modules nothing imports: {orphans}.  Give each the entry point a "
        "figure, bench or documented workflow needs, or delete it with its "
        "tests; ALLOWED takes a module only with the workflow that reaches it"
    )
    stale = sorted(m for m in ALLOWED if m not in importers or importers[m])
    assert stale == [], f"drop from ALLOWED (gone, or imported now): {stale}"
