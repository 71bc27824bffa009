import pathlib

import pytest

from voinet.config import load_voi_config

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def safety_config():
    """The bundled safety profile, loaded afresh on every call: tests mutate it."""
    return load_voi_config(REPO_ROOT / "configs" / "safety.json")


@pytest.fixture(scope="session")
def configs_dir():
    return REPO_ROOT / "configs"


@pytest.fixture
def safety():
    return safety_config()
