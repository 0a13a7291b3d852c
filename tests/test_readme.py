"""The README's Python API example runs as written, on a smaller pool."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
FULL_SWEEP = "results = run_reg_sweep(ExperimentConfig())"


def _api_example() -> str:
    text = README.read_text()
    section = text[text.index("## Python API"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_api_example_runs(capsys):
    code = _api_example()
    assert "n=12000" in code and FULL_SWEEP in code
    code = code.replace("n=12000", "n=1500").replace(FULL_SWEEP, "")
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    report = namespace["report"]
    assert set(report.skew_at) == {25, 100}
    assert 0.0 <= report.precision_at[100] <= 1.0
    assert len(capsys.readouterr().out.split()) == 3
