"""Shared fixtures and the acceptance-criteria report hook."""

import pytest

from d2dcache import analytic
from d2dcache.model import ContentLibrary, NetworkConfig

# One line per acceptance criterion, printed in the terminal summary so the
# verdicts are visible even when per-test output capture is on.
_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_report():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ref_cfg():
    """Reference network: 40 clusters/km^2, 8 devices/cluster, sigma 50 m,
    path loss 4, 0 dB SIR threshold."""
    return NetworkConfig(lambda_p=40e-6, n_bar=8.0, sigma=50.0, alpha=4.0,
                         theta=1.0)


@pytest.fixture(scope="session")
def ref_library():
    """Reference library: 100 files, Zipf 0.5, cache budget 5."""
    return ContentLibrary.from_zipf(100, 0.5, 5)


@pytest.fixture(autouse=True)
def empty_memos():
    """Every test starts from an empty exponent-lattice memo and an empty
    caterer-means memo, so that no test depends on which tests ran before
    it."""
    analytic._lattices.cache_clear()
    analytic._caterer_tables.cache_clear()
