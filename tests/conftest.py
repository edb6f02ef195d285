import pytest
from hypothesis import settings

from korbits.weyl import WeylGroup

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture
def no_enumeration(monkeypatch):
    """Fail the test if anything enumerates the elements of a Weyl group."""

    def refuse(self):
        raise AssertionError(f"enumerated the elements of {self.describe()}")

    monkeypatch.setattr(WeylGroup, "elements", refuse)
