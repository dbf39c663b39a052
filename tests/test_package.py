"""The package's public surface: every name in ``__all__``, the names the
README and the demos import from the root, and the README's library example."""

from __future__ import annotations

import ast
import pathlib
import re

import osmag_nav

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from osmag_nav import *", namespace)
    assert len(set(osmag_nav.__all__)) == len(osmag_nav.__all__)
    assert [name for name in osmag_nav.__all__ if name not in namespace] == []


def _root_imports(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "osmag_nav" and node.level == 0
        for alias in node.names
    }


def test_root_exports_exactly_what_the_readme_and_demos_import():
    # the root is the documented surface: a name nothing documented imports
    # from it lives in its module alone, and a documented one must resolve
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert blocks and demos
    used = set().union(*(_root_imports(b) for b in blocks))
    used |= set().union(*(_root_imports(d.read_text(encoding="utf-8")) for d in demos))
    assert used == set(osmag_nav.__all__)


def test_readme_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    rooms = ast.literal_eval(capsys.readouterr().out)
    assert rooms and all(node_ids for _, node_ids in rooms)
