import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    example = doctest.DocTestParser().get_doctest(
        blocks[0], {}, "README.md", str(README), 0)
    report = []
    result = doctest.DocTestRunner().run(example, out=report.append)
    assert result == (0, 7), "".join(report)
