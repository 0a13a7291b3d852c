import sys

import pytest

from fairsim import default_config, default_user, generate_pool, label_pool


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion verdicts after the test summary."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "CRITERION_LINES", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)


@pytest.fixture
def rewrite_cell():
    """Overwrite one cell of a CSV file, addressed by 1-based data row and column index."""

    def rewrite(path, row, column, value):
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    return rewrite


@pytest.fixture(scope="session")
def tiny_pool():
    """Sixty candidates, enough for ranking and fitting without being slow."""
    return generate_pool(default_config(n=60, seed=123))


@pytest.fixture(scope="session")
def fair_user():
    return default_user(0.0, seed=7)


@pytest.fixture(scope="session")
def tiny_labeled(tiny_pool, fair_user):
    return label_pool(tiny_pool, fair_user)
