"""Tests for the standard input suite: the registry's loaders and factory."""

import pytest

from repro.workloads.registry import (
    GRAPH_NAMES,
    MATRIX_NAMES,
    WORKLOAD_INPUTS,
    describe_inputs,
    load_csr,
    load_graph,
    load_matrix,
    resolve,
    workload_instances,
)

SCALE = 13  # small inputs for tests


class TestLoaders:
    def test_graphs_exist(self):
        for name in GRAPH_NAMES:
            edges = load_graph(name, scale=SCALE)
            assert edges.num_edges > 0

    def test_graphs_are_cached(self):
        assert load_graph("KRON", scale=SCALE) is load_graph("KRON", scale=SCALE)

    def test_unknown_graph_rejected(self):
        with pytest.raises(KeyError):
            load_graph("NOPE", scale=SCALE)

    def test_csr_matches_edges(self):
        csr = load_csr("URND", scale=SCALE)
        edges = load_graph("URND", scale=SCALE)
        assert csr.num_edges == edges.num_edges

    def test_matrices_exist(self):
        for name in MATRIX_NAMES:
            matrix = load_matrix(name, scale=SCALE)
            assert matrix.nnz > 0

    def test_unknown_matrix_rejected(self):
        with pytest.raises(KeyError):
            load_matrix("NOPE", scale=SCALE)


class TestWorkloadFactory:
    @pytest.mark.parametrize("workload_name", sorted(WORKLOAD_INPUTS))
    def test_every_workload_instantiates(self, workload_name):
        input_name = WORKLOAD_INPUTS[workload_name][0]
        workload = resolve(workload_name, input_name, scale=SCALE)
        assert workload.num_updates > 0
        assert workload.cache_key.startswith(workload_name)

    def test_instances_are_cached(self):
        a = resolve("degree-count", "KRON", scale=SCALE)
        b = resolve("degree-count", "KRON", scale=SCALE)
        assert a is b

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            resolve("nope", "KRON", scale=SCALE)

    def test_workload_instances_iterates_suite(self):
        triples = list(workload_instances(scale=SCALE))
        names = {name for name, _input, _wl in triples}
        assert names == set(WORKLOAD_INPUTS)
        expected = sum(len(v) for v in WORKLOAD_INPUTS.values())
        assert len(triples) == expected

    def test_workload_filter(self):
        triples = list(workload_instances(scale=SCALE, workloads={"pagerank"}))
        assert all(name == "pagerank" for name, _i, _w in triples)
        assert len(triples) == len(WORKLOAD_INPUTS["pagerank"])


class TestDescribeInputs:
    def test_table_iii_analog(self):
        rows = describe_inputs(scale=SCALE)
        kinds = {row["kind"] for row in rows}
        assert kinds == {"graph", "matrix"}
        assert len(rows) == len(GRAPH_NAMES) + len(MATRIX_NAMES)
