import functools

import pytest

from subext.scenarios import run_scenario


@pytest.fixture(scope="session")
def scenario_run():
    """run_scenario(name, seed=0), run once per name for the whole session,
    so the acceptance criteria and the report contract share each run."""
    return functools.lru_cache(maxsize=None)(
        lambda name: run_scenario(name, seed=0))
