"""Source hygiene that no installed linter checks: every module-level import
in src/ and tests/ is used by the file that makes it, every public
module-level name of src/ that src/ itself never reads is on a known list,
every name a test patches on an onegenus module is one src/ reads from it,
and a process loads no module that only another step needs: the CLI import no
worker pool's, a run on a cached kernel no compiler's."""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def _top_level_imports(tree: ast.Module):
    """(bound name, line) of each import in the module body, including the
    bodies of top-level if and try statements; __future__ imports are
    directives, not names."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level __all__."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(e.value for e in ast.walk(node.value)
                         if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return names


def unused_imports(source: str, label: str) -> list[str]:
    """label:line and name of each module-level import that source never uses."""
    tree = ast.parse(source, filename=label)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [f"{label}:{line} {name}" for name, line in _top_level_imports(tree) if name not in used]


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport sys as system\n"
              "from os import path\n__all__ = ['path']\nprint(system)\n")
    assert unused_imports(source, "probe.py") == ["probe.py:2 os"]


def test_no_unused_module_level_import():
    # a package __init__.py imports to re-export
    assert {"sieve.py", "cli.py", "conftest.py", "test_hygiene.py"} <= {p.name for p in FILES}
    found = [hit for p in FILES if p.name != "__init__.py"
             for hit in unused_imports(p.read_text(), str(p.relative_to(ROOT)))]
    assert found == []


# Public module-level names of src/ that no src/ module reads, each with why
# it stays; a name that only tests read does not belong in src/.
UNREAD_IN_SRC = {
    "ambiguous_census": "perfbench traces it and its self-test calls it",
    "benchmark_stream": "perfbench's stream-dense workload times it",
    "full_check": "perfbench's hunt workload calls and traces genus_report by this name",
    "ocpg_values": "perfbench's hunt workload settles the pass-through range with it",
    "qr_prefilter": "perfbench/checks.py replays eliminations through it",
    "reduce_form": "library API: onegenus exports it",
}


def _defined(tree: ast.Module) -> set[str]:
    """Public names that def, class and plain assignments bind in the module body."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def _read(tree: ast.Module) -> set[str]:
    """Names the module loads, bare or as an attribute; an import alone reads nothing."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_scan_finds_an_unread_public_name():
    tree = ast.parse("from .x import Unused\nLIMIT = 3\n_private = 1\ndef helper():\n"
                     "    return LIMIT\nprint(helper)\nclass Unused:\n    pass\n")
    assert _defined(tree) - _read(tree) == {"Unused"}


def test_public_names_unread_in_src_are_known():
    trees = [ast.parse(p.read_text()) for p in FILES if p.is_relative_to(ROOT / "src")]
    defined = set().union(*map(_defined, trees))
    read = set().union(*map(_read, trees))
    assert defined - read == UNREAD_IN_SRC.keys()


# A monkeypatch.setattr on an onegenus module takes effect only where src/
# reads the name from that module: bare in the module's own source, or as
# alias.NAME where another module imports it whole.  A patch of any other
# name, such as one a move left behind on a re-export, changes nothing.
SRC_MODULES = {"onegenus" + ("" if p.stem == "__init__" else "." + p.stem): p
               for p in FILES if p.is_relative_to(ROOT / "src")}


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """Each name that an import anywhere in tree binds to a whole onegenus
    module, with that module's name; relative imports are from onegenus."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in SRC_MODULES:
                    bound = alias.asname or alias.name.partition(".")[0]
                    aliases[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["onegenus" if node.level else None, node.module]))
            for alias in node.names:
                if f"{base}.{alias.name}" in SRC_MODULES:
                    aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
    return aliases


def _src_reads() -> dict[str, set[str]]:
    """Per onegenus module, the names that src/ reads from it."""
    trees = {name: ast.parse(path.read_text()) for name, path in SRC_MODULES.items()}
    reads = {name: {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                    and not isinstance(n.ctx, ast.Store)} for name, tree in trees.items()}
    for tree in trees.values():
        aliases = _module_aliases(tree)
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in aliases:
                reads[aliases[n.value.id]].add(n.attr)
    return reads


def unread_patches(source: str, label: str, reads: dict[str, set[str]]) -> list[str]:
    """label:line and module.NAME of each monkeypatch.setattr in source of a
    NAME, given as a string, on an onegenus module that src/ never reads
    from that module.  Names resolve file-wide; other targets are skipped."""
    tree = ast.parse(source, filename=label)
    aliases = _module_aliases(tree)

    def module(node) -> str | None:
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute) and (outer := module(node.value)):
            inner = ast.parse(SRC_MODULES[outer].read_text())
            return _module_aliases(inner).get(node.attr)
        return None

    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setattr" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "monkeypatch" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)):
            target, name = module(node.args[0]), node.args[1].value
            if target and name not in reads[target]:
                found.append(f"{label}:{node.lineno} {target}.{name}")
    return found


def test_scan_finds_a_patch_with_no_effect():
    source = ("from onegenus import cli as climod, record, sieve\n"
              "def test(monkeypatch):\n"
              "    monkeypatch.setattr(sieve, '_CSV_BLOCK', 7)\n"
              "    monkeypatch.setattr(record, '_CSV_BLOCK', 7)\n"
              "    monkeypatch.setattr(sieve.os, 'replace', None)\n"
              "    monkeypatch.setattr(sieve, 'count_valid', None)\n"
              "    monkeypatch.setattr(climod.sieve, 'run_sieve', None)\n"
              "    monkeypatch.setattr(climod, 'SieveOutcome', None)\n")
    assert unread_patches(source, "probe.py", _src_reads()) == [
        "probe.py:3 onegenus.sieve._CSV_BLOCK", "probe.py:8 onegenus.cli.SieveOutcome"]


def test_every_module_patch_takes_effect():
    reads = _src_reads()
    found = [hit for p in FILES if p.is_relative_to(ROOT / "tests")
             for hit in unread_patches(p.read_text(), str(p.relative_to(ROOT)), reads)]
    assert found == []


def test_package_all_resolves():
    import onegenus

    assert [n for n in onegenus.__all__ if not hasattr(onegenus, n)] == []


# what each probe runs, and a module it must not load: once numpy is loaded,
# multiprocessing costs every importer ~5 ms and only a worker pool uses it;
# subprocess only a kernel build uses; sympy (~30 MB, ~0.5 s) only factorize's
# hard cofactors, which no number of the audit or the genus report has.  A
# probe reads its verdict from stdout, so the code it runs prints nothing.
LEAVES_OUT = {
    "cli": ("import onegenus.cli", "multiprocessing"),
    "warm-run": ("from onegenus.sieve import SieveConfig, run_sieve\n"
                 "run_sieve(SieveConfig(p1_primes=(3, 5, 7), p2_primes=(11, 13, 17),\n"
                 "                      sieve_primes=(19, 23, 29, 31, 37, 41, 43, 47),\n"
                 "                      limit=10**6, small_cutoff=10**4))", "subprocess"),
    "audit": ("from onegenus import analytic, bounds\n"
              "analytic.verify_identity(-20)\n"
              "analytic.real_class_number(21)\n"
              "analytic.fundamental_unit(21)\n"
              "bounds.bound_report(-98 * 10**17)", "sympy"),
    "genus": ("from onegenus import forms\n"
              "forms.genus_report(-420).to_json_dict()", "sympy"),
}


@pytest.mark.parametrize("case", LEAVES_OUT)
def test_leaves_out_module(case, monkeypatch, tmp_path):
    code, module = LEAVES_OUT[case]
    if case == "warm-run":
        from onegenus import sieve

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        if sieve._stream_kernel.__wrapped__() is None:
            pytest.skip("no compiled kernel to find in the cache")
    probe = f"import sys\n{code}\nprint({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "False"
