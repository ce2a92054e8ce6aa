"""Every registered model's zoo outcome bytes, one sharded run and the
Figure-2 trace equal their committed digests.

See :mod:`tests.zoo_pin` for what is hashed and how to regenerate.
"""

import pytest

from repro.experiments import parallel, sharded
from tests.zoo_pin import (
    FIG2_KEY,
    SHARD_KEY,
    committed,
    digests,
    fig2_digest,
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


def test_fig2_trace_matches_committed_digest(tmp_path):
    table = committed().get(FIG2_KEY, {})
    version = python_version()
    if version not in table:
        pytest.skip(f"no Figure-2 digest committed for Python {version}")
    assert fig2_digest(tmp_path / "traces") == table[version]
