"""The README's library quick start, run as a doctest."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    # only the python block: run on the whole file, doctest would read the
    # closing fence as expected output
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    test = doctest.DocTestParser().get_doctest(block, {}, "README quick start", str(README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted == 7 and result.failed == 0
