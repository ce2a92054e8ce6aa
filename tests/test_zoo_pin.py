"""Every registered model's zoo outcome bytes equal the committed digest.

See :mod:`tests.zoo_pin` for what is hashed and how to regenerate.
"""

import pytest

from repro.experiments import parallel
from tests.zoo_pin import committed, digests, python_version, specs


def test_zoo_outcomes_match_committed_digests():
    table = committed()
    version = python_version()
    if version not in table:
        pytest.skip(f"no zoo digests committed for Python {version}")
    assert digests([parallel.run_trial(spec) for spec in specs()]) == (
        table[version]
    )
