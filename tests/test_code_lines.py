"""The code-line counter (tools/code_lines.py) on a file and on a directory."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SOURCE = '''"""A module docstring."""

# a comment
X = 1
"""The string after a constant."""


def f(a,
      b):
    return a + b
'''


def test_a_file_counts_as_itself_and_a_directory_as_its_python_files(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    one = package / "one.py"
    one.write_text(SOURCE)
    (package / "sub" / "two.py").write_text(SOURCE + "Y = 2\n")
    (package / "notes.txt").write_text("Z = 3\n")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(one), str(package)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [f"4 {one}", f"9 {package}"]
