"""The README's code runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_excludes():
    section = README.read_text().split("\n## Library example\n", 1)[1]
    namespace: dict = {}
    exec(re.search(r"```python\n(.*?)```", section, re.S).group(1), namespace)
    # the block asserts the verdict itself; this checks that it ran
    assert namespace["verdict"] == "excluded"
