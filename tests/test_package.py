"""The package's public surface: every name in ``__all__`` and the README's
library example."""

from __future__ import annotations

import ast
import pathlib
import re

import osmag_nav

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from osmag_nav import *", namespace)
    assert len(set(osmag_nav.__all__)) == len(osmag_nav.__all__)
    assert [name for name in osmag_nav.__all__ if name not in namespace] == []
    assert len(osmag_nav.__all__) <= 54  # the public surface shrinks, never grows


def test_readme_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    rooms = ast.literal_eval(capsys.readouterr().out)
    assert rooms and all(node_ids for _, node_ids in rooms)
