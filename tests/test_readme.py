"""The README's Python API example runs as written, on a smaller pool, and its
configuration block is the default config."""

import json
import re
from pathlib import Path

from fairsim import ExperimentConfig, experiment_config_from_dict
from fairsim.datagen import config_to_dict

README = Path(__file__).resolve().parents[1] / "README.md"
FULL_SWEEP = "results = run_reg_sweep(ExperimentConfig())"


def _first_block(heading: str, language: str) -> str:
    text = README.read_text()
    section = text[text.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_config_block_is_the_default_config():
    block = json.loads(_first_block("## Configuration", "json"))
    assert config_to_dict(experiment_config_from_dict(block)) == config_to_dict(ExperimentConfig())


def test_readme_api_example_runs(capsys):
    code = _first_block("## Python API", "python")
    assert "n=12000" in code and FULL_SWEEP in code
    code = code.replace("n=12000", "n=1500").replace(FULL_SWEEP, "")
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    report = namespace["report"]
    assert set(report.skew_at) == {25, 100}
    assert 0.0 <= report.precision_at[100] <= 1.0
    assert len(capsys.readouterr().out.split()) == 3
