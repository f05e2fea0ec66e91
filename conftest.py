"""Session settings shared by the tests in ``tests/`` and ``perfbench/``."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def projector_cache(tmp_path_factory):
    """Point the projector table cache at an empty directory for the session.

    The suite then never writes into the user's ``~/.cache``, and no test
    depends on what that holds. Subprocesses inherit the variable.
    """
    with pytest.MonkeyPatch.context() as patch:
        root = tmp_path_factory.mktemp("xdg-cache")
        patch.setenv("XDG_CACHE_HOME", str(root))
        yield root
