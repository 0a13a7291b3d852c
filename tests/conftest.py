import sys
import tracemalloc
import warnings

import pytest
from hypothesis import settings

from fairsim import GenConfig, default_user, generate_pool, label_pool

# `pytest --hypothesis-profile=ci` (the CI tier-1 step) draws the same examples
# on every run, so a tie-heavy case that fails once fails again.
settings.register_profile("ci", derandomize=True, deadline=None)

# A failing property makes Hypothesis's pytest plugin import this module (libcst
# behind it) inside a report hook, where `-W error` turns libcst's import-time
# DeprecationWarning into an INTERNALERROR that hides the falsifying example and
# stops the run. Importing it here first, with that warning ignored, avoids it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin then skips the import too
        pass


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


@pytest.fixture
def traced():
    """Run ``call()`` under tracemalloc; give its result, the bytes it left allocated
    and the bytes it held at its peak, both counted from the start of the call.
    Works whether or not tracing is already on."""

    def run(call):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        return result, after - before, peak - before

    return run


@pytest.fixture(scope="session")
def tiny_pool():
    """Sixty candidates, enough for ranking and fitting without being slow."""
    return generate_pool(GenConfig(n=60, seed=123))


@pytest.fixture(scope="session")
def fair_user():
    return default_user(0.0, seed=7)


@pytest.fixture(scope="session")
def tiny_labeled(tiny_pool, fair_user):
    return label_pool(tiny_pool, fair_user)
