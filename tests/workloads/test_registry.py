"""Tests for the declarative workload registry.

Round-trips every registered spec through resolution and the functional
oracle at a small scale, and pins the identity contract: spec strings,
cache keys, kind checking, fixed-scale datasets, and the static
``REGISTERED_CLASSES`` literal the lint rule parses.
"""

import pytest

from repro.workloads import registry
from repro.workloads.registry import (
    DATASET_NAMES,
    GRAPH_NAMES,
    INPUTS,
    REGISTERED_CLASSES,
    WORKLOAD_INPUTS,
    WORKLOADS,
    cache_key_for,
    default_bin_counts,
    describe_workloads,
    effective_scale,
    format_spec,
    input_fixed_scale,
    parse_spec,
    resolve,
    resolve_point,
    resolve_spec,
    workload_instances,
)

SCALE = 10  # small enough that every kernel oracle-verifies quickly


def suite_triples():
    """Every (workload, input) pair of the full registry, suite scale."""
    triples = []
    for name, spec in WORKLOADS.items():
        for input_name in spec.inputs:
            triples.append((name, input_name))
    return triples


class TestRoundTrip:
    @pytest.mark.parametrize("workload_name,input_name", suite_triples())
    def test_every_spec_resolves_and_verifies(self, workload_name, input_name):
        scale = None if input_fixed_scale(input_name) is not None else SCALE
        workload = resolve(workload_name, input_name, scale)
        assert workload.num_updates > 0
        spec = WORKLOADS[workload_name]
        assert spec.oracle(workload, num_bins=16)

    @pytest.mark.parametrize("workload_name,input_name", suite_triples())
    def test_cache_key_round_trips(self, workload_name, input_name):
        scale = None if input_fixed_scale(input_name) is not None else SCALE
        workload = resolve(workload_name, input_name, scale)
        assert resolve_point(workload.cache_key) is workload

    def test_spec_string_round_trips(self):
        workload = resolve_spec(f"degree-count/KRON@{SCALE}")
        assert workload is resolve("degree-count", "KRON", SCALE)
        assert workload.cache_key == f"degree-count:KRON:{SCALE}"


class TestIdentity:
    def test_format_and_parse_are_inverse(self):
        spec = format_spec("pagerank", "WEB", 14)
        assert spec == "pagerank/WEB@14"
        assert parse_spec(spec) == ("pagerank", "WEB", 14)

    def test_parse_without_scale(self):
        assert parse_spec("spmv/POIS") == ("spmv", "POIS", None)

    @pytest.mark.parametrize(
        "bad", ["pagerank", "pagerank@14", "a/b/c@14", "/KRON@14", "pr/@14"]
    )
    def test_malformed_spec_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    @pytest.mark.parametrize("bad", ["spmv/POIS@x", "spmv/POIS@0", "spmv/POIS@-3"])
    def test_bad_scale_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    def test_cache_key_bytes_are_the_wire_format(self):
        # Frozen contract: colon-separated, integer scale — these bytes
        # feed run_digest and must never drift (see test_digest_pins).
        assert cache_key_for("integer-sort", "U16", 13) == "integer-sort:U16:13"

    def test_bad_cache_key_rejected(self):
        with pytest.raises(ValueError):
            resolve_point("degree-count:KRON")
        with pytest.raises(ValueError):
            resolve_point("degree-count:KRON:big")


class TestResolutionErrors:
    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="unknown workload"):
            resolve("nope", "KRON", SCALE)

    def test_unknown_input(self):
        with pytest.raises(KeyError, match="unknown input"):
            resolve("degree-count", "NOPE", SCALE)

    def test_kind_mismatch(self):
        # spmv consumes matrices; KRON is a graph input.
        with pytest.raises(KeyError, match="matrix"):
            resolve("spmv", "KRON", SCALE)


class TestDatasets:
    def test_ingested_inputs_registered_as_graphs(self):
        for name in DATASET_NAMES:
            assert INPUTS[name].kind == registry.KIND_GRAPH
            assert input_fixed_scale(name) is not None

    def test_fixed_scale_conflict_rejected(self):
        name = DATASET_NAMES[0]
        fixed = input_fixed_scale(name)
        with pytest.raises(ValueError, match="fixed at"):
            effective_scale(name, fixed + 1)

    def test_fixed_scale_accepts_none_and_exact(self):
        name = DATASET_NAMES[0]
        fixed = input_fixed_scale(name)
        assert effective_scale(name) == fixed
        assert effective_scale(name, fixed) == fixed

    def test_dataset_resolves_under_graph_kernels_ad_hoc(self):
        # KARATE is not in degree-count's canonical suite tuple, but it
        # is a graph input, so kind-based resolution accepts it.
        workload = resolve("degree-count", "KARATE")
        assert workload.cache_key == (
            f"degree-count:KARATE:{input_fixed_scale('KARATE')}"
        )


class TestSuiteStability:
    def test_paper_suite_excludes_extensions(self):
        assert set(WORKLOAD_INPUTS) == {
            name for name, spec in WORKLOADS.items() if not spec.extension
        }
        assert len(WORKLOAD_INPUTS) == 9
        # 23 canonical points: the digest-pin fixture's exact size.
        assert sum(len(v) for v in WORKLOAD_INPUTS.values()) == 23

    def test_workload_instances_default_matches_paper_suite(self):
        triples = list(workload_instances(scale=SCALE))
        assert len(triples) == 23
        assert {name for name, _i, _w in triples} == set(WORKLOAD_INPUTS)

    def test_include_extensions_adds_new_kernels(self):
        triples = list(
            workload_instances(scale=SCALE, include_extensions=True)
        )
        names = {name for name, _i, _w in triples}
        assert "histogram" in names and "csr-build" in names
        extra = len(WORKLOADS["histogram"].inputs) + len(
            WORKLOADS["csr-build"].inputs
        )
        assert len(triples) == 23 + extra

    def test_registered_classes_literal_matches_live_registry(self):
        # The lint rule parses REGISTERED_CLASSES statically; this keeps
        # the literal honest against what the builders construct.
        scale = SCALE
        live = set()
        for name, spec in WORKLOADS.items():
            input_name = spec.inputs[0]
            point_scale = (
                None if input_fixed_scale(input_name) is not None else scale
            )
            live.add(type(resolve(name, input_name, point_scale)).__name__)
        assert live == set(REGISTERED_CLASSES)
        assert REGISTERED_CLASSES == tuple(
            sorted(REGISTERED_CLASSES, key=str.lower)
        )


class TestBinCounts:
    def test_paper_sweep_at_suite_scale(self):
        assert default_bin_counts(18) == (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

    def test_small_scales_clip(self):
        assert default_bin_counts(6) == (16,)
        assert max(default_bin_counts(10)) <= 1 << 10


class TestListings:
    def test_describe_workloads_covers_registry(self):
        rows = describe_workloads()
        assert [row["workload"] for row in rows] == list(WORKLOADS)
        for row in rows:
            assert row["specs"]  # every workload lists runnable specs
            for spec_text in row["specs"]:
                name, input_name, scale = parse_spec(spec_text)
                assert name == row["workload"]
                assert input_name in row["inputs"]
                assert scale is not None


class TestCompatibilityShim:
    def test_api_resolve_workload(self):
        from repro import api

        workload = api.resolve_workload(f"degree-count/KRON@{SCALE}")
        assert workload is resolve("degree-count", "KRON", SCALE)
