"""README's Library block is a doctest: every value it shows is the one the
library returns."""

import doctest
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_prints_what_it_shows():
    text = README.read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    lineno = text[: block.start(1)].count("\n")
    test = doctest.DocTestParser().get_doctest(block.group(1), {}, "README.md Library", str(README), lineno)
    results = doctest.DocTestRunner().run(test)
    assert results.attempted > 0
    assert results.failed == 0
