"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_its_comments():
    code = _library_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    comments = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 4
    for line, comment in zip(printed, comments):
        # a comment gives the printed value, then maybe ", limit ..." or " -> its limit"
        want = re.split(r", limit| ->", comment)[0]
        if re.fullmatch(r"\d+\.\d+", want):  # a float, rounded
            assert round(float(line), len(want.split(".")[1])) == float(want), (line, comment)
        else:  # "..." stands for the middle of the text
            head, _, tail = want.partition("...")
            assert line.startswith(head) and line.endswith(tail), (line, comment)
            assert "..." in want or line == want, (line, comment)
