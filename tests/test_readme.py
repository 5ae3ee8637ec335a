"""The Python API example of the README runs as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example():
    """The ```python block, closing fence included: expected output that
    runs into the fence would read the fence as output too."""
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    stop = text.index("```", start) + len("```")
    test = doctest.DocTestParser().get_doctest(text[start:stop], {}, "README", str(README), 0)
    assert test.examples
    assert doctest.DocTestRunner().run(test).failed == 0
