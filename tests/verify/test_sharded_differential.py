"""The differential oracle's shard axis.

Every generated scenario now also runs through the partitioned
multi-process executor (``n_shards ∈ {1, 2, 4}``, plus sharded
audited / index-join crossings).  This suite proves the
axis is wired — the configs exist, seeded fuzz runs verify clean
through them, and the known-bad mutation (denial-by-default disabled)
is still caught when the engine runs sharded.
"""

import pytest

from repro.verify.differ import configs_for, verify_scenario
from repro.verify.faults import disable_denial_by_default
from repro.verify.generator import generate_scenario


def test_shard_axis_is_in_the_config_matrix():
    scenario = generate_scenario(23, 0)
    configs = configs_for(scenario)
    shard_counts = sorted({c.n_shards for c in configs if c.n_shards})
    assert shard_counts == [1, 2, 4]
    labels = [c.label for c in configs]
    assert not any("columnar" in label for label in labels)
    assert "sharded2-audited/nl/none" in labels
    modes = {c.mode for c in configs if c.n_shards}
    assert "sharded2-batched" in modes
    # Sharded audited config keeps the element-wise reference path.
    audited = [c for c in configs if c.audit and c.n_shards]
    assert audited and not audited[0].batching


@pytest.mark.parametrize("seed,index", [(31, 0), (31, 1), (31, 2),
                                        (47, 0), (47, 3)])
def test_seeded_scenarios_verify_clean_with_shards(seed, index):
    scenario = generate_scenario(seed, index)
    report = verify_scenario(scenario, include_baselines=False)
    assert report.ok, "\n".join(str(m) for m in report.mismatches)
    # The run really crossed the shard axis.
    assert report.configs_run >= len(configs_for(scenario))


def test_known_bad_mutation_caught_by_sharded_configs():
    """Disabling denial-by-default must be flagged by sharded runs too.

    Parallelism must never silently widen access — if only the
    single-process configs flagged the mutation, a sharded deployment
    would be fail-open.
    """
    mutator = disable_denial_by_default()
    for index in range(10):
        scenario = generate_scenario(99, index)
        report = verify_scenario(scenario, include_baselines=False,
                                 element_mutator=mutator)
        if not report.ok:
            sharded_hits = [m for m in report.mismatches
                            if m.config.startswith("sharded")]
            assert sharded_hits, (
                "mutation caught only by single-process configs:\n"
                + "\n".join(str(m) for m in report.mismatches))
            return
    pytest.fail("known-bad mutation was never detected in 10 scenarios")
