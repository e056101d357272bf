"""Sanity checks of the benchmark's own generator, counters and checks.

Run with: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import census
import run
import spans
import workloads
from ksets import catalog, construct, model, setfile, verify
from ksets.verify import Mode

ROOT = Path(__file__).resolve().parents[2]


def _census_set(seed: int) -> model.KSSet:
    wl = workloads.CoreCensus(seed)
    projs = {
        pid: model.Projector((model.Ray([wl.values[x] for x in ray]),))
        for pid, ray in zip(wl.ids, wl.rays)
    }
    contexts = [tuple(wl.ids[i] for i in ctx) for ctx in wl.contexts]
    return model.KSSet(census.DIMENSION, projs, contexts)


def test_census_master_set_is_40_rays_32_orthogonal_bases():
    rays, contexts = census.master_set()
    assert len(rays) == 40 and len(set(rays)) == 40
    assert len(contexts) == 32 and len(set(contexts)) == 32
    for ctx in contexts:
        for a, b in itertools.combinations(ctx, 2):
            assert sum(x * y for x, y in zip(rays[a], rays[b])) == 0
    assert census.master_set() == (rays, contexts)


def test_census_orders_are_deterministic_per_seed():
    def first(seed):
        return list(itertools.islice(census.context_orders(seed, 32), 5))

    assert first(3) == first(3)
    assert first(3) != first(4)
    assert all(sorted(order) == list(range(32)) for order in first(3))


def test_census_master_set_is_ks_and_valid():
    s = _census_set(0)
    assert model.validate(s).ok
    assert verify.find_assignment(s, Mode.CONTEXT_ONLY) is None


def _overlapping_pairs(rays) -> int:
    """Pairs of rays whose supports overlap, from their entries alone."""
    supports = [{i for i, e in enumerate(r) if e} for r in rays]
    return sum(1 for a, b in itertools.combinations(supports, 2) if a & b)


def _graph_inner_calls(s: model.KSSet) -> float:
    tracer = spans.Tracer()
    with tracer.installed():
        model.orthogonality_graph(s)
    return tracer.raw().get("model.graph.inner_calls", 0)


def test_graph_inner_calls_equal_overlapping_pairs_on_rank1_sets():
    rays, _ = census.master_set()
    assert _graph_inner_calls(_census_set(0)) == _overlapping_pairs(rays)
    for name in ("d3-57-40", "d4-18-9", "d6-21-7", "d11-40-12"):
        s = setfile.parse(setfile.serialize(catalog.seed_set(name)))
        entries = [[not e.is_zero() for e in p.span[0].entries]
                   for p in s.projectors.values()]
        assert _graph_inner_calls(s) == _overlapping_pairs(entries), name


def test_graph_inner_calls_bounded_by_span_pairs_on_higher_rank_sets():
    s = setfile.parse(setfile.serialize(catalog.seed_set("d10-30-9")))
    projs = list(s.projectors.values())
    span_pairs = sum(
        1 for p, q in itertools.combinations(projs, 2)
        for u in p.span for v in q.span if u.support & v.support)
    projector_pairs = sum(
        1 for p, q in itertools.combinations(projs, 2) if p.support & q.support)
    assert projector_pairs <= _graph_inner_calls(s) <= span_pairs


def test_context_mode_reduction_never_builds_the_graph():
    tracer = spans.Tracer()
    with tracer.installed():
        core = construct.reduce_critical(_census_set(1), Mode.CONTEXT_ONLY)
    raw = tracer.raw()
    assert raw.get("model.graph.inner_calls", 0) == 0
    assert raw["construct.reduce.input_contexts"] == 32
    assert raw["construct.reduce.kept_contexts"] == core.n_contexts


def test_tracer_wraps_every_binding_and_restores_it():
    original = model.orthogonality_graph
    find = verify.find_assignment
    inv = model.CycNum.inv
    with spans.Tracer().installed():
        assert model.orthogonality_graph is not original
        assert verify.orthogonality_graph is model.orthogonality_graph
        assert construct.find_assignment is verify.find_assignment is not find
        assert model.CycNum.inv is not inv
    assert verify.orthogonality_graph is model.orthogonality_graph is original
    assert construct.find_assignment is verify.find_assignment is find
    assert model.CycNum.inv is inv


def test_self_times_add_up_to_root_span_times():
    tracer = spans.Tracer()
    with tracer.installed():
        s = setfile.parse(setfile.serialize(catalog.seed_set("d4-18-9")))
        verify.is_ks(s)
        verify.is_critical(s)
    raw = tracer.raw()
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    selfs = sum(v for k, v in raw.items() if k.endswith(".self_s"))
    assert abs(roots - selfs) < 1e-9
    assert raw["verify.is_ks.self_s"] < raw["verify.is_ks.s"]
    assert raw["verify.removals"] == 9


def test_table_build_known_mismatches_fail_and_are_known():
    wl = workloads.TableBuild(0)
    known = [op for op in wl.ops if wl.known_failure(op)]
    assert len(wl.ops) == 112 and len(known) == 3
    for op in known:
        assert not wl.check(op, wl.run(op))


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in spans.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
