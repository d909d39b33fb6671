import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """ONE Ray session per pytest run (SURVEY.md §5 / driver contract)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture()
def no_map_groups(monkeypatch):
    """Make Ray's ``GroupedData.map_groups`` raise: the test's per-key
    reduces must all run on ``partitioning.key_runs`` (one sort on the
    key, then one map over the sorted blocks)."""
    from ray.data.grouped_data import GroupedData

    def refuse(*_a, **_k):
        raise AssertionError("GroupedData.map_groups called")

    monkeypatch.setattr(GroupedData, "map_groups", refuse)


@pytest.fixture()
def no_ray_keyed_ops(monkeypatch, no_map_groups):
    """``no_map_groups``, and Ray's ``GroupedData.aggregate`` and
    ``count`` and ``Dataset.join`` made to raise as well: the test's keyed
    steps must all run on ``partitioning.key_runs`` or ``report.tally``."""
    from ray.data import Dataset
    from ray.data.grouped_data import GroupedData

    def refusing(name):
        def refuse(*_a, **_k):
            raise AssertionError(f"{name} called")
        return refuse

    for owner, name in ((GroupedData, "aggregate"), (GroupedData, "count"),
                        (Dataset, "join")):
        monkeypatch.setattr(owner, name,
                            refusing(f"{owner.__name__}.{name}"))


@pytest.fixture(scope="session")
def pages_small(tmp_path_factory):
    """Deterministic 1000-row pages fixture (FIXTURES.md §B), cached in
    /tmp across test runs."""
    from fixtures.gen_pages import generate

    out = "/tmp/crawtext_ray_fixtures"
    os.makedirs(out, exist_ok=True)
    return generate(out, "small")


@pytest.fixture(scope="session")
def truth_small(pages_small):
    import pyarrow.dataset as pds

    truth_dir = pages_small.replace("pages_", "truth_")
    return pds.dataset(truth_dir).to_table().to_pandas()
