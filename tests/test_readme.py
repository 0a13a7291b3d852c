"""The README's Python API example and step-by-step pipeline run as written, on a
smaller pool, and its configuration block is the default config."""

import json
import re
import shlex
from pathlib import Path

from fairsim import (
    ExperimentConfig, UserConfig, compute_baseline, experiment_config_from_dict, load_labeled,
    load_model, load_pool, rank_by_model, save_baseline, save_labeled,
)
from fairsim.cli import main
from fairsim.datagen import config_to_dict
from fairsim.usermodel import LabeledPool

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


def test_readme_pipeline_runs(tmp_path, monkeypatch, capsys):
    block = _first_block("## Step-by-step pipeline", "sh").replace("\\\n", " ")
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert all(line[0] == "fairsim" for line in lines)
    lines[0][lines[0].index("12000")] = "1500"  # the generate line
    monkeypatch.chdir(tmp_path)
    for line in lines:
        if line[1] == "metrics":
            # No stage writes these two; build them as the paragraph under the block says.
            labeled = load_labeled("labeled.csv")
            final, _ = load_model("final.json")
            order = rank_by_model(final, labeled.features)
            save_labeled(LabeledPool(labeled.features[order], labeled.protected[order],
                                     labeled.labels[order], labeled.bias_coin[order]), "ranked.csv")
            save_baseline(compute_baseline(load_pool("pool.csv"), UserConfig(0.0)),
                          "baseline.json")
            capsys.readouterr()
        assert main(line[1:]) == 0, line
    printed = capsys.readouterr().out.splitlines()
    assert [row.split(" = ")[0] for row in printed] == [
        "skew@25", "precision@25", "skew@100", "precision@100", "ndcs@100"]
