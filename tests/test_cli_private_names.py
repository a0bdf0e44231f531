"""`cli` composes the other modules through their public names only.

The test reads the source of `entkit/cli.py` as a syntax tree and fails on
every `_`-prefixed name that `cli` imports from another `entkit` module, and
on every `module._name` it reads from one. `cli`'s own private helpers
(`_emit`, `_cmd_*`) are not reached through a module and do not count.
"""

import ast
from pathlib import Path

import entkit.cli

CLI = Path(entkit.cli.__file__)


def private_reach_ins(source: str) -> list[str]:
    """`module.name` for each private name `source`, a module of the
    `entkit` package, imports from or reads on another `entkit` module."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # local name -> entkit module it names
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 and not node.module or node.module == "entkit"
            within = node.level == 1 or (node.module or "").startswith("entkit.")
            for alias in node.names:
                if package:
                    modules[alias.asname or alias.name] = alias.name
                elif within and alias.name.startswith("_"):
                    found.append(f"{node.module.removeprefix('entkit.')}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("entkit.") and alias.asname:
                    modules[alias.asname] = alias.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_cli_reaches_into_no_private_name_of_another_module():
    assert private_reach_ins(CLI.read_text(encoding="utf-8")) == []


def test_private_reach_ins_are_found():
    source = '''
from . import coref, metrics as m
from .corpus import _unit_blocks, iter_pairs
from entkit.stats import _fold
import entkit.rules as r
rows = m._label_rows(views, "soft")
report = coref.coref_report(tables)
facts = r._ground_head(atom)
own = _emit(payload)
'''
    assert sorted(private_reach_ins(source)) == [
        "corpus._unit_blocks", "metrics._label_rows", "rules._ground_head",
        "stats._fold"]
