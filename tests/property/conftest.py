"""Shared setup for the property suite.

The first ``st.text()`` with the default alphabet makes Hypothesis build
its table of the characters the utf-8 codec can encode.  Without a copy
cached in the Hypothesis storage directory (a fresh checkout) that takes
about 2 s on a 2-vCPU host, and it falls inside whichever test draws
such a string first, where the ``too_slow`` health check counts it
against that test's strategy.  Building it once before the suite's
first test keeps the one-time cost out of every test's draws.
"""

import pytest
from hypothesis import strategies as st


@pytest.fixture(scope="session", autouse=True)
def utf8_character_table():
    st.text().validate()
