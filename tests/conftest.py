import numpy as np
import pytest

from support import ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = list(ACCEPTANCE_LINES)
    for rep in terminalreporter.stats.get("failed", []):
        if "test_acceptance.py" in rep.nodeid:
            lines.append(f"[FAIL] {rep.nodeid.split('::')[-1]}")
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
