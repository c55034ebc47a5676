"""The code examples of README.md run as they are written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"{README}:Library use", "exec"), {})
    printed = re.fullmatch(r"G2Result\(value=([^,]+), .*\)\n", out.getvalue())
    assert printed and 0 < float(printed.group(1)) < 0.05  # a pure source
