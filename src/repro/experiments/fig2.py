"""E2 — Figure 2: the VM client flips the Nagle outcome at a fixed load.

The paper runs one Redis client at a fixed 20 kRPS from bare metal and
from inside a VM.  The VM client burns far more CPU for the same
workload (Figure 2a) while the server's CPU stays the same (Figure 2b)
— i.e. only the client-side cost ``c`` changed — and that alone flips
whether Nagle batching helps (Figure 2c), the live analogue of the
Figure 1 model.

Our VM model multiplies every client-side cost (per-delivery, per-packet,
per-response ``c``, per-wakeup) by ``vm_factor``; the server runs a
calibrated cost profile placing 20 kRPS just past its no-batching knee,
so batching visibly relieves the server for the fast client while its
response clumping penalizes the slow client.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.redis_client import ClientConfig
from repro.host.host import HostCosts
from repro.loadgen.lancet import BenchConfig, RunResult
from repro.loadgen.stats import summarize
from repro.units import msecs, to_usecs

FIXED_RATE = 20_000.0
SERVER_SCALE = 1.6
VM_FACTOR = 3.0
CLIENT_C_NS = 12_000
CLIENT_ITER_NS = 2_000
DEFAULT_SEEDS = (1, 2, 3)


def fig2_config(vm: bool, nagle: bool, seed: int,
                measure_ns: int = msecs(150)) -> BenchConfig:
    """One Figure 2 cell: client placement × Nagle setting."""
    factor = VM_FACTOR if vm else 1.0
    return BenchConfig(
        rate_per_sec=FIXED_RATE,
        nagle=nagle,
        seed=seed,
        warmup_ns=msecs(40),
        measure_ns=measure_ns,
        server_costs=HostCosts().scaled(SERVER_SCALE),
        client_cpu_factor=factor,
        client_config=ClientConfig(
            c_ns=round(CLIENT_C_NS * factor),
            iteration_extra_ns=round(CLIENT_ITER_NS * factor),
        ),
    )


@dataclass
class Fig2Cell:
    """Seed-averaged metrics for one (placement, nagle) cell."""

    vm: bool
    nagle: bool
    mean_latency_ns: float
    client_cpu: float
    server_cpu: float
    runs: list[RunResult]


@dataclass
class Fig2Result:
    """All four cells plus the paper's three panel verdicts."""

    cells: dict[tuple[bool, bool], Fig2Cell]

    def cell(self, vm: bool, nagle: bool) -> Fig2Cell:
        """Fetch one cell."""
        return self.cells[(vm, nagle)]

    @property
    def client_cpu_ratio(self) -> float:
        """Figure 2a: VM client CPU over bare-metal client CPU."""
        return self.cell(True, False).client_cpu / self.cell(False, False).client_cpu

    @property
    def server_cpu_ratio(self) -> float:
        """Figure 2b: server CPU with VM client over bare (≈1 expected)."""
        return self.cell(True, False).server_cpu / self.cell(False, False).server_cpu

    @property
    def nagle_helps_bare(self) -> bool:
        """Figure 2c, left: batching outcome for the bare-metal client."""
        return (
            self.cell(False, True).mean_latency_ns
            < self.cell(False, False).mean_latency_ns
        )

    @property
    def nagle_helps_vm(self) -> bool:
        """Figure 2c, right: batching outcome for the VM client."""
        return (
            self.cell(True, True).mean_latency_ns
            < self.cell(True, False).mean_latency_ns
        )

    def render(self) -> str:
        """Figure 2 as a table plus verdicts."""
        from repro.analysis.report import format_table

        rows = []
        for vm in (False, True):
            for nagle in (False, True):
                cell = self.cell(vm, nagle)
                rows.append((
                    "VM" if vm else "bare",
                    "on" if nagle else "off",
                    to_usecs(cell.mean_latency_ns),
                    cell.client_cpu,
                    cell.server_cpu,
                ))
        table = format_table(
            ["client", "nagle", "latency (us)", "client CPU", "server CPU"],
            rows,
            title=f"Figure 2: fixed {FIXED_RATE:.0f} RPS, bare-metal vs VM client",
        )
        return "\n".join([
            table,
            f"(a) VM client uses {self.client_cpu_ratio:.1f}x the client CPU",
            f"(b) server CPU ratio VM/bare: {self.server_cpu_ratio:.2f} (~1 expected)",
            f"(c) Nagle helps bare-metal: {self.nagle_helps_bare}; "
            f"Nagle helps VM: {self.nagle_helps_vm} (paper: True / False)",
        ])


def run_fig2(seeds: tuple[int, ...] = DEFAULT_SEEDS,
             measure_ns: int = msecs(150),
             workers: int = 1,
             tracer=None,
             policy=None,
             checkpoint=None,
             watchdog=None,
             diagnosis=None) -> Fig2Result:
    """Run all four cells, averaging each over the given seeds.

    The 4 x len(seeds) grid is one campaign, so ``workers > 1`` keeps a
    process pool busy across every cell; results equal the serial run.
    ``tracer`` records the whole campaign into one ``repro-trace-v1``
    stream (forcing serial execution — see
    :meth:`repro.parallel.ParallelRunner.map_outcomes`).  ``policy``,
    ``checkpoint`` and ``watchdog`` forward to
    :func:`repro.parallel.run_campaign`; pointing ``checkpoint`` at a
    directory makes the campaign resumable (completed cells are skipped
    on a rerun, with identical results).  ``diagnosis`` (a
    :class:`repro.diagnose.DiagnosisHook`; requires ``tracer``) scores
    each cell's trace segment as it completes.
    """
    # A testbed run that only wants ``fig2_config`` never loads the pool.
    from repro.parallel import run_campaign

    grid = [(vm, nagle) for vm in (False, True) for nagle in (False, True)]
    configs = [
        fig2_config(vm, nagle, seed, measure_ns)
        for vm, nagle in grid
        for seed in seeds
    ]
    results = run_campaign(
        configs, workers=workers, tracer=tracer,
        policy=policy, checkpoint=checkpoint, watchdog=watchdog,
        diagnosis=diagnosis,
    )
    cells = {}
    for i, (vm, nagle) in enumerate(grid):
        runs = results[i * len(seeds):(i + 1) * len(seeds)]
        cells[(vm, nagle)] = Fig2Cell(
            vm=vm,
            nagle=nagle,
            mean_latency_ns=summarize(
                [r.latency.mean_ns for r in runs]
            ).mean_ns,
            client_cpu=sum(r.client_cpu for r in runs) / len(runs),
            server_cpu=sum(r.server_cpu for r in runs) / len(runs),
            runs=runs,
        )
    return Fig2Result(cells=cells)
