"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under 'Library example'"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme_example"})
    status, rms = capsys.readouterr().out.split()
    assert status in ("cost_converged", "gradient_converged", "max_iterations")
    # the example fits noise-free data whose output RMS is about 0.3
    assert float(rms) < 1e-3
