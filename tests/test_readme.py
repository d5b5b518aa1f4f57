"""README.md's library quick start runs as printed, and its comments state what it returns."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def quick_start() -> str:
    """The one ```python block of README.md."""
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    return block


def test_the_readme_quick_start_runs_and_returns_what_its_comments_state():
    namespace: dict = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    kc, k33, census, w = namespace["kc"], namespace["k33"], namespace["census"], namespace["w"]
    assert (len(census.colorings), len(census.classes)) == (12, 2)
    assert kc.equivalent_without_cover(k33, namespace["c1"], namespace["c2"]) is None
    assert (w.cover.degree, len(w.switches)) == (2, 4)
