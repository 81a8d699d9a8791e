"""The README's library quick tour, run as a doctest, and its shell examples,
run through the command line entry point."""

import doctest
import re
import shlex
from pathlib import Path

from mullineux.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour():
    # Only the ```python blocks: the shell examples hold no `>>>` prompts, and
    # a fence right after an expected output would otherwise be read as output.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    parser = doctest.DocTestParser()
    test = parser.get_doctest("\n".join(blocks), {}, "README quick tour", str(README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF)
    runner.run(test)
    results = runner.summarize(verbose=False)
    assert (results.attempted, results.failed) == (8, 0)


def test_readme_shell_examples(capsys):
    # Each block is one `$ mullineux ...` line followed by its exact stdout.
    blocks = re.findall(r"^```\n\$ mullineux (.*?)\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 8
    for command, expected in blocks:
        code = main(shlex.split(command))
        assert (code, capsys.readouterr().out) == (0, expected), command
