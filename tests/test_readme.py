"""README's fenced Python usage example runs as written, so that it
cannot drift from the library's API unnoticed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_examples(text: str) -> list[str]:
    """The bodies of the fenced ```python blocks of a Markdown ``text``."""
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_python_examples_are_found():
    text = "intro\n```python\nx = 1\n```\n```sh\nls\n```\n```python\ny = 2\n```\n"
    assert python_examples(text) == ["x = 1\n", "y = 2\n"]


def test_readme_usage_example_runs():
    examples = python_examples(README.read_text(encoding="utf-8"))
    assert len(examples) == 1
    scope = {}
    exec(compile(examples[0], str(README), "exec"), scope)
    logits, trained = scope["logits"], scope["trained_logits"]
    assert logits.shape == trained.shape == (len(scope["task"].test_features), scope["task"].c)
