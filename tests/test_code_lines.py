"""scripts/code_lines.py counts a module's lines that are not blank,
comment or docstring lines."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a trailing comment keeps its line


class A:
    """One docstring line."""

    x = """a string that is not a docstring,
    over two lines"""

    def f(self):
        """A method docstring
        over two lines."""
        return (1 +
                2)


async def g():
    "A one-line docstring."

    # an indented comment
    pass
'''

# import, class, x = (2 lines), def f, return (2 lines), async def, pass
CODE = 9


def test_fixture_count():
    assert code_lines.code_lines(FIXTURE) == CODE


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("\n# only a comment\n\nx = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        [str(CODE), str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        [str(CODE + 1), "total"],
    ]
