import pathlib

import pytest
from hypothesis import settings

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# Property tests draw the same examples on every run and have no per-example
# deadline, so a loaded host can neither fail them nor change what they check.
settings.register_profile("fqzeta", deadline=None, derandomize=True)
settings.load_profile("fqzeta")


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture
def fresh_tables():
    """Drop a field's cached exp/log and chi tables for one test, then restore them.

    make_extension shares one field per (p, k) for the whole session, so a
    test that checks whether a count builds tables must not see tables that
    another test left behind.
    """
    saved = []

    def clear(field):
        saved.append((field, field._np_tables, field._np_chi))
        field._np_tables = field._np_chi = None
        return field

    yield clear
    for field, tables, chi in reversed(saved):
        field._np_tables, field._np_chi = tables, chi
