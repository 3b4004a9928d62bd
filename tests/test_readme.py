"""The README's Python examples run as written, in order, in one namespace."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    # the library quick tour and the array examples
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for n, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {n}", "exec"), namespace)
