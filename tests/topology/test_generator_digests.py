"""Golden digests of generated topologies.

``data/generator_digests.json`` pins the sha256 of the canonical JSON of
``to_json_dict(graph)`` — nodes, regions, links *and* the per-node
adjacency order — for every scenario at two sizes and two seeds, a
single-region and a many-region parameter set, a tiny dense instance
(exhausted candidate pools, the exhaustive-scan fallback after
``_MAX_DRAW_ATTEMPTS``) and one ``evolve_topology`` growth step.  The
generator's sampler must reproduce every one of them draw for draw; the
file was recorded from the list-and-bisect sampler it replaced.

Re-record (only when the generator's output is *meant* to change) with
``PYTHONPATH=src python tests/topology/test_generator_digests.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.topology.evolve import evolve_topology
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.scenarios import scenario_names, scenario_params
from repro.topology.serialization import to_json_dict

DIGESTS_PATH = Path(__file__).parent / "data" / "generator_digests.json"

_SIZES = (300, 1200)
_SEEDS = (1, 2)


def _scenario_case(name, n, seed):
    return lambda: generate_topology(scenario_params(name, n), seed=seed)


def _single_region():
    return generate_topology(baseline_params(600, regions=1), seed=4)


def _many_regions():
    # More regions than a small frozenset's hash table has slots, and many
    # two-region nodes: candidate order across a node's regions matters.
    params = baseline_params(900, regions=12).replace(
        m_two_region_fraction=0.6, cp_two_region_fraction=0.4
    )
    return generate_topology(params, seed=5)


def _tiny_dense():
    # Peering demand far above what the pools can supply: slots are
    # abandoned, pools run dry and the exhaustive fallback decides.
    params = baseline_params(60).replace(
        d_m=4.0, d_cp=4.0, p_m=9.0, p_cp_m=4.0, p_cp_cp=2.0
    )
    return generate_topology(params, seed=6)


def _evolve_step():
    graph = generate_topology(baseline_params(400), seed=7)
    return evolve_topology(graph, baseline_params(700), seed=8)


CASES = {
    f"{name}/n={n}/seed={seed}": _scenario_case(name, n, seed)
    for name in scenario_names()
    for n in _SIZES
    for seed in _SEEDS
}
CASES.update(
    {
        "single-region/n=600/seed=4": _single_region,
        "many-regions/n=900/seed=5": _many_regions,
        "tiny-dense/n=60/seed=6": _tiny_dense,
        "evolve/n=400->700/seeds=7,8": _evolve_step,
    }
)


def graph_digest(graph) -> str:
    canonical = json.dumps(to_json_dict(graph), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_generator_output_is_pinned(case, recorded):
    assert graph_digest(CASES[case]()) == recorded[case]


if __name__ == "__main__":
    DIGESTS_PATH.write_text(
        json.dumps({case: graph_digest(build()) for case, build in sorted(CASES.items())}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    print(f"recorded {len(CASES)} digests in {DIGESTS_PATH}")
