"""The Python examples of README.md, run as doctests."""

import doctest
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_pass_as_doctests():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    out: list[str] = []
    for block in blocks:
        # the block's first line, counted from 0 as doctest does
        line = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block[1], {}, "README.md", str(README), line)
        runner.run(test, out=out.append)
    assert runner.failures == 0, "".join(out)
    assert runner.tries > 0
