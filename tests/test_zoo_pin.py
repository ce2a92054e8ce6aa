"""Every registered model's zoo outcome bytes equal the committed digest.

See :mod:`tests.zoo_pin` for what is hashed and how to regenerate.
"""

import pytest

from repro.experiments import parallel, sharded
from tests.zoo_pin import (
    SHARD_KEY,
    committed,
    digests,
    python_version,
    shard_digest,
    specs,
)


def test_zoo_outcomes_match_committed_digests():
    table = committed()
    version = python_version()
    if version not in table:
        pytest.skip(f"no zoo digests committed for Python {version}")
    assert digests([parallel.run_trial(spec) for spec in specs()]) == (
        table[version]
    )


def test_sharded_canonical_bytes_match_committed_digest():
    table = committed().get(SHARD_KEY, {})
    version = python_version()
    if version not in table:
        pytest.skip(f"no shard digest committed for Python {version}")
    assert shard_digest(sharded.SERIAL) == table[version]
