"""Rules on the source, and README's examples run as written: no assert
statement in the package or the test references (python -O strips them, so
a contract check must raise), no imported name a package module never
reads, README's command lines and its library block."""

import ast
import re
from pathlib import Path

from posetkit import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "posetkit").glob("*.py"))
REFERENCES = sorted(Path(__file__).parent.glob("reference_*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _tree(path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def asserts(paths) -> list:
    """"path:line" of every assert statement in the files at paths."""
    return [f"{p}:{node.lineno}" for p in paths
            for node in ast.walk(_tree(p)) if isinstance(node, ast.Assert)]


def unused_imports(paths) -> list:
    """"path:line: name" of every imported name its module never reads.
    __future__ switches and the relative imports of an __init__.py, which
    it binds on purpose, are exempt."""
    found = []
    for p in paths:
        tree = _tree(p)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "__future__" or node.level and p.name == "__init__.py"):
                continue
            found += [f"{p}:{node.lineno}: {name}" for alias in node.names
                      if (name := (alias.asname or alias.name).split(".")[0]) not in read]
    return found


def test_checks_find_planted_faults(tmp_path):
    checked, unread = tmp_path / "checked.py", tmp_path / "unread.py"
    checked.write_text("def f(x):\n    assert x\n    return x\n")
    unread.write_text("import os\nimport sys\n\nprint(sys.argv)\n")
    assert asserts([checked, unread]) == [f"{checked}:2"]
    assert unused_imports([checked, unread]) == [f"{unread}:1: os"]
    assert SRC and REFERENCES  # neither check passes on no files


def test_no_assert_statements():
    found = asserts(SRC + REFERENCES)
    assert not found, found


def test_no_unused_imports():
    found = unused_imports(SRC)
    assert not found, found


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    # the Input-format example as P.poset, then every `posetkit ...` line of
    # the command block, trailing comments stripped
    blocks = re.findall(r"```(\w*)\n(.*?)```", README, re.S)
    (tmp_path / "P.poset").write_text(next(b for _, b in blocks if b.startswith("poset 5\n")))
    commands = next(b for lang, b in blocks if lang == "sh" and "posetkit led-bool" in b)
    lines = [line.split("#")[0].split() for line in commands.splitlines()
             if line.startswith("posetkit ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for words in lines:
        try:
            code = cli.main(words[1:])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        assert code == 0, (words, capsys.readouterr().err)


def test_readme_library_example():
    # the python block runs as written, and every expression line whose
    # comment starts with an integer evaluates to that integer
    block = re.search(r"```python\n(.*?)```", README, re.S)[1]
    scope = {}
    exec(block, scope)
    checks = [(m[1].strip(), int(m[2]))
              for m in re.finditer(r"^([^#\n]+)#\s*(\d+)\b", block, re.M)]
    assert checks
    assert [(expr, eval(expr, scope)) for expr, _ in checks] == checks
