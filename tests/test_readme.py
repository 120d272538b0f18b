import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_import():
    # the documented entry points must exist: run the block as written
    section = README.read_text().split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Library entry points'"
    exec(compile(block.group(1), "README.md", "exec"), {})
