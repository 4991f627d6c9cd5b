"""Cross-checks between the NoC model and the rest of the system."""

from repro.harness import DEFAULT_MACHINE
from repro.noc import Mesh2D, NocModel


class TestGrounding:
    def test_mesh_matches_table_ii(self):
        """Table II: 4x4 mesh, 2-cycle hops, 64-bit links."""
        model = NocModel()
        assert model.mesh.num_nodes == 16
        assert model.params.hop_cycles == 2
        assert model.params.link_bytes_per_cycle == 8

    def test_remote_llc_latency_consistent_with_machine(self):
        """CoreParams.llc_remote_latency must stay within the band the NoC
        model derives, or the fig15 tiling comparison drifts."""
        model = NocModel()
        derived = model.remote_llc_latency(
            local_llc_cycles=DEFAULT_MACHINE.core.llc_latency
        )
        configured = DEFAULT_MACHINE.core.llc_remote_latency
        assert abs(derived - configured) / configured < 0.25

    def test_bank_count_matches_core_count(self):
        from repro.harness.experiments.scaling import BASE_CORES

        assert Mesh2D().num_nodes == BASE_CORES


class TestContentionScenarios:
    def test_binning_traffic_fits_the_mesh(self):
        """COBRA's LLC-eviction traffic is tiny relative to mesh capacity:
        one 64 B line per 8 tuples, spread over a Binning phase."""
        model = NocModel()
        # 2M tuples -> 256k lines over ~4M cycles, uniformly to banks.
        traffic = model.uniform_traffic(bytes_per_node=256_000 * 64 / 16)
        factor = model.contention_factor(traffic, cycles=4_000_000)
        assert factor < 1.5

    def test_saturating_traffic_detected(self):
        model = NocModel()
        traffic = model.uniform_traffic(bytes_per_node=10**9)
        assert model.contention_factor(traffic, cycles=1_000) == 100.0

    def test_hotspot_worse_than_uniform(self):
        model = NocModel()
        volume = 200_000.0
        uniform = model.contention_factor(
            model.uniform_traffic(volume), cycles=100_000
        )
        hotspot = model.contention_factor(
            {(src, 5): volume for src in range(16) if src != 5},
            cycles=100_000,
        )
        assert hotspot > uniform
