"""Differential proof for batched Select's column kernels.

Every committed reproducer case and a fresh block of generated
scenarios must deliver the oracle's exact multiset under
``batched/nl/none`` — segment-batched execution, where each select
filters its runs through the compiled predicate kernels over column
views, here on every run length — and agree with the element-wise
engine on the whole-plan drop counter.  The full cross-product (optimizer levels, audited, traced and
sharded runs) is exercised by ``verify_scenario`` itself.
"""

import os
from collections import Counter

import pytest

from repro.operators import select as select_module
from repro.verify.differ import EngineConfig, diff_delivered, run_engine
from repro.verify.generator import generate_scenario
from repro.verify.oracle import run_oracle
from repro.verify.shrink import load_cases

CASES_DIR = os.path.join(os.path.dirname(__file__), "cases")
CASES = load_cases(CASES_DIR)

BATCHED = EngineConfig(label="batched/nl/none", batching=True)
ELEMENTWISE = EngineConfig(label="elementwise/nl/none", batching=False)

#: Generated-scenario block: seed fixed for reproducibility.
GENERATED_SEED = 733
GENERATED_COUNT = 24


@pytest.fixture(autouse=True)
def force_kernels(monkeypatch):
    """Generated segments are short, well under the kernels' run-length
    cutover — lower it so the kernels actually run."""
    monkeypatch.setattr(select_module, "KERNEL_MIN_ROWS", 1)


def assert_columnar_matches_oracle(scenario):
    oracle = run_oracle(scenario.decoded(), scenario.queries)
    batched = run_engine(scenario, BATCHED)
    element = run_engine(scenario, ELEMENTWISE)
    for name in scenario.queries:
        detail = diff_delivered(oracle.delivered[name],
                                batched.delivered.get(name, Counter()))
        assert detail is None, f"{scenario.describe()} {name}: {detail}"
    assert batched.total_drops == element.total_drops


@pytest.mark.parametrize("name,scenario", CASES,
                         ids=[name for name, _ in CASES])
def test_committed_case_columnar(name, scenario):
    assert_columnar_matches_oracle(scenario)


@pytest.mark.parametrize("index", range(GENERATED_COUNT))
def test_generated_scenario_columnar(index):
    assert_columnar_matches_oracle(
        generate_scenario(GENERATED_SEED, index))
