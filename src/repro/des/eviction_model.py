"""DES model of COBRA's eviction buffers (Section V-D, Figure 13a).

Models the Binning-phase pipeline: the core appends tuples to L1
C-Buffers; a full C-Buffer line enters the finite L1→L2 eviction FIFO,
where a binning engine unpacks it and scatters tuples into L2 C-Buffers;
full L2 C-Buffer lines flow through the L2→LLC FIFO to the LLC, and full
LLC C-Buffers are written to in-memory bins. The core *stalls* when it must
evict into a full L1→L2 FIFO — the quantity Figure 13a reports as a
function of FIFO size. Unlike the Little's-law estimate, the DES consumes a
real tuple trace, so input-specific eviction bursts are captured.

:meth:`EvictionBufferModel.run` replays the identical schedule as one C
call (:func:`~repro.cache.kernels.cnative.eviction_pipeline_native`),
without generator/heap machinery. The generator-engine formulation,
:meth:`EvictionBufferModel.run_reference`, is the readable statement of the
model, the oracle the C loop is bit-identity-tested against
(``tests/des/test_fastloop.py``), and the path ``run`` takes when no C
compiler is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import as_index_array, check_positive
from repro.cache.kernels import cnative
from repro.des.engine import Queue, Simulator, Timeout

__all__ = ["EvictionModelConfig", "EvictionModelResult", "EvictionBufferModel"]


@dataclass(frozen=True)
class EvictionModelConfig:
    """Parameters of the eviction-pipeline model.

    Time is in core cycles. ``core_cycles_per_tuple`` includes the streaming
    work (edge loads) between consecutive ``binupdate`` instructions;
    ``engine_cycles_per_tuple`` is the fixed-function scatter rate (the
    engine inserts two tuples per cycle by default).
    """

    num_indices: int
    l1_buffers: int = 32
    l2_buffers: int = 256
    llc_buffers: int = 2048
    tuples_per_line: int = 8
    l1_evict_queue: int = 4
    l2_evict_queue: int = 8
    mem_queue: int = 8
    core_cycles_per_tuple: float = 1.5
    engine_cycles_per_tuple: float = 0.5
    mem_cycles_per_line: float = 4.0

    def __post_init__(self):
        check_positive("num_indices", self.num_indices)
        for name in ("l1_buffers", "l2_buffers", "llc_buffers", "tuples_per_line",
                     "l1_evict_queue", "l2_evict_queue", "mem_queue"):
            check_positive(name, getattr(self, name))
        if not self.l1_buffers <= self.l2_buffers <= self.llc_buffers:
            raise ValueError("buffer counts must grow down the hierarchy")

    def bin_range(self, buffers):
        """Indices mapped to one C-Buffer at a level with ``buffers`` buffers."""
        return max(1, -(-self.num_indices // buffers))  # ceil division


@dataclass
class EvictionModelResult:
    """Outputs of one DES run."""

    total_cycles: float
    core_stall_cycles: float
    tuples: int
    evictions: dict = field(default_factory=dict)
    max_queue_occupancy: dict = field(default_factory=dict)

    @property
    def stall_fraction(self):
        """Fraction of execution the core spent stalled on a full FIFO."""
        return self.core_stall_cycles / self.total_cycles if self.total_cycles else 0.0


class EvictionBufferModel:
    """Runs the eviction-pipeline DES over a tuple index trace."""

    def __init__(self, config: EvictionModelConfig):
        self.config = config

    def run(self, indices) -> EvictionModelResult:
        """Simulate binning the given tuple ``indices`` (1-D int array).

        Runs the C loop; falls back to :meth:`run_reference` when the C
        tier is unavailable or cannot allocate its arena. Both paths are
        bit-identical by test.
        """
        cfg = self.config
        indices = as_index_array(indices)
        if len(indices) and indices.max() >= cfg.num_indices:
            raise ValueError("trace contains indices beyond num_indices")
        native = (
            cnative.eviction_pipeline_native(indices, cfg)
            if cnative.available()
            else None
        )
        if native is None:
            return self.run_reference(indices)
        total, stall, evictions, max_occ = native
        return EvictionModelResult(
            total_cycles=total,
            core_stall_cycles=stall,
            tuples=len(indices),
            evictions={
                "l1": evictions[0],
                "l2": evictions[1],
                "llc": evictions[2],
            },
            max_queue_occupancy={
                "l1_evict": max_occ[0],
                "l2_evict": max_occ[1],
                "mem": max_occ[2],
            },
        )

    def run_reference(self, indices) -> EvictionModelResult:
        """Generator-engine oracle for :meth:`run` (and its no-compiler path)."""
        cfg = self.config
        indices = as_index_array(indices)
        if len(indices) and indices.max() >= cfg.num_indices:
            raise ValueError("trace contains indices beyond num_indices")

        sim = Simulator()
        fifo_l1 = Queue(cfg.l1_evict_queue, "L1->L2")
        fifo_l2 = Queue(cfg.l2_evict_queue, "L2->LLC")
        fifo_mem = Queue(cfg.mem_queue, "LLC->MEM")
        stats = {"stall": 0.0, "evict_l1": 0, "evict_l2": 0, "evict_llc": 0}

        r1 = cfg.bin_range(cfg.l1_buffers)
        r2 = cfg.bin_range(cfg.l2_buffers)
        r3 = cfg.bin_range(cfg.llc_buffers)
        per_line = cfg.tuples_per_line

        def core():
            buffers = {}
            trace = indices.tolist()
            for idx in trace:
                yield Timeout(cfg.core_cycles_per_tuple)
                buffer_id = idx // r1
                line = buffers.setdefault(buffer_id, [])
                line.append(idx)
                if len(line) == per_line:
                    stats["evict_l1"] += 1
                    buffers[buffer_id] = []
                    start = sim.now
                    yield fifo_l1.put(line)
                    stats["stall"] += sim.now - start

        def engine(in_fifo, out_fifo, bin_range, evict_key):
            buffers = {}
            while True:
                line = yield in_fifo.get()
                for idx in line:
                    yield Timeout(cfg.engine_cycles_per_tuple)
                    buffer_id = idx // bin_range
                    target = buffers.setdefault(buffer_id, [])
                    target.append(idx)
                    if len(target) == per_line:
                        stats[evict_key] += 1
                        buffers[buffer_id] = []
                        yield out_fifo.put(target)

        def memory_writer():
            while True:
                yield fifo_mem.get()
                yield Timeout(cfg.mem_cycles_per_line)

        sim.process(core())
        sim.process(engine(fifo_l1, fifo_l2, r2, "evict_l2"))
        sim.process(engine(fifo_l2, fifo_mem, r3, "evict_llc"))
        sim.process(memory_writer())
        total = sim.run()

        return EvictionModelResult(
            total_cycles=total,
            core_stall_cycles=stats["stall"],
            tuples=len(indices),
            evictions={
                "l1": stats["evict_l1"],
                "l2": stats["evict_l2"],
                "llc": stats["evict_llc"],
            },
            max_queue_occupancy={
                "l1_evict": fifo_l1.max_occupancy,
                "l2_evict": fifo_l2.max_occupancy,
                "mem": fifo_mem.max_occupancy,
            },
        )


def littles_law_queue_estimate(config: EvictionModelConfig):
    """Steady-state Little's-law estimate of L1→L2 FIFO occupancy.

    The paper derives a 14-entry estimate this way and then shows the DES
    (which sees bursts) needs 32 entries; this helper reproduces the
    estimate side of that comparison.
    """
    arrival_rate = 1.0 / (config.tuples_per_line * config.core_cycles_per_tuple)
    residence = config.tuples_per_line * config.engine_cycles_per_tuple
    return arrival_rate * residence


__all__.append("littles_law_queue_estimate")
