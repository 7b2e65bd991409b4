"""Figure 3: pipelined broadcasts versus request/response round trips.

The paper's example: four dependent operands, x1–x3 on one chip and x4 on
another.  A DataScalar system resolves the chain with **two** serialized
off-chip crossings (pipelined broadcasts of x1–x3, a datathread migration
to x4's owner, and the broadcast of x4); a traditional system pays a
request *and* a response per remote operand — **eight** crossings when no
operand is on the requesting chip's quarter of memory.

We reproduce both the analytic crossing counts and a timing-simulation
demonstration with a pointer-chase microbenchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.report import format_table
from ..errors import ConfigError
from ..isa.builder import ProgramBuilder
from ..workloads.common import checksum_slot, store_checksum
from .config import datascalar_config, timing_node_config, traditional_config

PAGE = 4096
#: The longest chain :func:`_chain_program` builds: hop 960 would reuse
#: hop 0's (page, slot) pair.
MAX_HOPS = 960


def datascalar_crossings(chain_owners) -> int:
    """Serialized off-chip crossings for a dependent chain under ESP:
    one broadcast per datathread migration plus the final broadcast —
    i.e. one crossing per ownership change, plus one."""
    if not chain_owners:
        return 0
    crossings = 1  # the final operand must still reach the other nodes
    for previous, current in zip(chain_owners, chain_owners[1:]):
        if current != previous:
            crossings += 1
    return crossings


def traditional_crossings(chain_owners, local_node=None) -> int:
    """Request + response per operand not on the requesting chip."""
    remote = sum(1 for owner in chain_owners if owner != local_node)
    return 2 * remote


@dataclass
class Figure3Result:
    """Analytic crossings plus measured cycles for the microbenchmark."""

    datascalar_crossings: int
    traditional_crossings: int
    datascalar_cycles: int
    traditional_cycles: int

    @property
    def crossing_ratio(self) -> float:
        return self.traditional_crossings / self.datascalar_crossings


def _chain_program(hops: int = 64):
    """A pointer chase whose chain walks within a page before hopping to
    the next page — x1..x3 local, x4 remote, repeated."""
    if not 1 <= hops <= MAX_HOPS:
        raise ConfigError(f"hops must be in 1..{MAX_HOPS}, got {hops}")
    b = ProgramBuilder("figure3")
    pages = 4
    chain = b.alloc_global("chain", pages * PAGE)
    csum = checksum_slot(b)
    # Chain layout: 3 sequential elements per page, then jump pages.
    # The slot stride is chosen so (page, slot) pairs never repeat within
    # a chain of up to MAX_HOPS hops — a collision would short-circuit
    # the chase.
    addresses = []
    for hop in range(hops):
        page = (hop // 3) % pages
        slot = (hop * 148) % (PAGE - 256)
        addresses.append(chain + page * PAGE + (slot & ~3))
    for here, there in zip(addresses, addresses[1:]):
        b.init_word(here, there)
    b.init_word(addresses[-1], 0)
    b.li("r1", chain + (addresses[0] - chain))
    b.li("r2", 0)
    loop = b.fresh_label("chase")
    done = b.fresh_label("done")
    b.label(loop)
    b.beq("r1", "r0", done)
    b.add("r2", "r2", "r1")
    b.lw("r1", "r1", 0)
    b.j(loop)
    b.label(done)
    store_checksum(b, csum, "r2")
    b.halt()
    return b.build()


def run_figure3(num_nodes: int = 4, hops: int = 64,
                limit=None, runner=None) -> Figure3Result:
    """Regenerate Figure 3: the analytic 2-vs-8 counts for the paper's
    exact example, plus a timing run of the pointer-chase microbenchmark
    on matched systems."""
    from ..runner import SweepPoint, get_default_runner

    runner = runner or get_default_runner()
    # The paper's example: x1..x3 on chip 0, x4 on chip 1; the requesting
    # traditional chip holds none of them.
    paper_chain = [0, 0, 0, 1]
    analytic_ds = datascalar_crossings(paper_chain)
    analytic_trad = traditional_crossings(paper_chain, local_node=None)
    node = timing_node_config(dcache_bytes=1024)
    ds_result, trad_result = runner.run([
        SweepPoint.make("figure3", limit=limit, hops=hops,
                        config=datascalar_config(num_nodes, node=node),
                        label=f"figure3/ds{num_nodes}"),
        SweepPoint.make("figure3", limit=limit, hops=hops,
                        config=traditional_config(num_nodes, node=node),
                        label=f"figure3/trad{num_nodes}"),
    ])
    return Figure3Result(
        datascalar_crossings=analytic_ds,
        traditional_crossings=analytic_trad,
        datascalar_cycles=ds_result.cycles,
        traditional_cycles=trad_result.cycles,
    )


def format_figure3(result: Figure3Result) -> str:
    table = format_table(
        ["system", "serialized off-chip crossings", "chase cycles"],
        [["DataScalar", result.datascalar_crossings,
          result.datascalar_cycles],
         ["traditional", result.traditional_crossings,
          result.traditional_cycles]],
        title="Figure 3: dependent-chain off-chip serialization",
    )
    return (f"{table}\n(the paper's example: 2 vs 8 crossings; ratio "
            f"{result.crossing_ratio:.1f}x)")
