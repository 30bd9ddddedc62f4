import pytest


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    # The command line takes its default seed from ENTANGLE_COORD_SEED, so no
    # test inherits one; a test that sets it does so after this has run.
    monkeypatch.delenv("ENTANGLE_COORD_SEED", raising=False)
