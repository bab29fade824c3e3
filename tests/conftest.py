import pytest

from nomalink.config import ExperimentConfig, LinkSection
from nomalink.modem import train_modem


@pytest.fixture(scope="session")
def table1_models():
    """Modem pair trained at the default operating point, seed 0."""
    return train_modem(ExperimentConfig(), 0)


@pytest.fixture(scope="session")
def equal_power_models():
    """Modem pair trained at equal power shares, seed 0."""
    return train_modem(ExperimentConfig(link=LinkSection(0.5, 0.5)), 0)
