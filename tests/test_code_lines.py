"""``tools/code_lines.py``: which lines of a module count as code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# Each line is marked with whether it counts: docstrings, comments and blank
# lines do not; every line of a statement that spans lines does, a string
# that is not a docstring included.
SOURCE = '''\
"""The module docstring,                  # no
over two lines."""                        # no
                                          # no
import os  # a trailing comment           # yes
                                          # no
# a comment line                          # no
                                          # no
class Box:                                # yes
    """A class docstring."""              # no
                                          # no
    def area(self,                        # yes
             scale=1.0):                  # yes
        """A function docstring.          # no
                                          # no
        Over several lines.               # no
        """                               # no
        text = """a string,               # yes
        not a docstring"""                # yes
        return (self.width *              # yes
                self.height * scale)      # yes
'''


def _marked(source: str) -> str:
    """``source`` with each line's ``# yes``/``# no`` mark cut off."""
    return "".join(line[:42].rstrip() + "\n" for line in source.splitlines())


def test_a_line_counts_only_when_it_holds_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(_marked(SOURCE))
    assert code_lines.code_lines(path) == SOURCE.count("# yes") == 8


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_marked(SOURCE))
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = [\n    1,\n]\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     8  a.py\n     3  b.py\n    11  total\n"
