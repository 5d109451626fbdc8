import sys

import pytest

from ordext.orders import FinitePreorder


# the modules that test at 2000 elements share one relation of each kind,
# built once per session
@pytest.fixture(scope="session")
def big_chain():
    return FinitePreorder.chain(2000)


@pytest.fixture(scope="session")
def big_antichain():
    return FinitePreorder.antichain(2000)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, status in sorted(results):
        terminalreporter.write_line(f"criterion {number} ({name}): {status}")
