import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"


def test_count_lines_counts_only_code(tmp_path):
    # Only the three lines of the call count: not the docstring, the
    # comment, the blank line or the bare string after the code.
    (tmp_path / "sample.py").write_text(
        '"""A module docstring\nover two lines."""\n'
        "# a comment\n"
        "\n"
        "total = max(\n"
        "    1,\n"
        "    2)\n"
        '"a bare string after code"\n',
        encoding="utf-8",
    )
    result = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                            capture_output=True, text=True, check=True)
    assert result.stdout == "sample 3\ntotal 3\n"
