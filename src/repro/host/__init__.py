"""Host substrate: CPU cores and the softirq receive context.

The paper pins two execution contexts per machine — the application thread
and the network-stack receive routines (IRQ/softIRQ) — to dedicated cores.
This package models exactly that:

- :class:`~repro.host.cpu.CpuCore` — a serial executor with busy-time
  accounting (CPU utilization feeds Figure 2a/2b).
- :class:`~repro.host.irq.SoftIrq` — the receive context: drains NIC
  interrupts, charges per-packet and per-byte costs to the net core, and
  feeds segments to the TCP layer.
- :class:`~repro.host.host.Host` — composition of cores, NIC and softirq,
  plus the cost-model knobs for a machine.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CpuCore": ".cpu",
    "Host": ".host",
    "HostCosts": ".host",
    "SoftIrq": ".irq",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
