"""The README's Python examples run as written against the package."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert blocks
    for source in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(source, str(README), "exec"), {"__name__": "readme"})
