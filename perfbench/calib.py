"""Machine-speed calibration: every timing is scaled to one reference speed.

A shared 2-vCPU Xeon virtual machine (2.0 GHz) was measured to alternate
between a fast and a slow state every second or so, with the share of
slow time drifting from one minute to the next; the same request took 1.6
to 1.8 times as long in the slow state.  Raw run medians of identical work
spread there by 15-30 %, wider than any useful bound.

So the benchmark times a fixed kernel (plain bytecode plus big-integer
arithmetic, the two kinds of work the package does) right before and after
the work it measures, and reports ``seconds * reference / kernel``: what
the work would have taken with the kernel at its reference time, the
kernel's time in the fast state of that machine.  Work done in a process
of its own is scaled by the kernel run in a fresh interpreter too
(``process_probe``), because process start-up does not slow down the way
in-process arithmetic does: scaled by the in-process kernel, the spread of
``longrun test`` processes grew (10 % to 12 % over blocks of 8); scaled by
the process kernel it fell to 6 %.  On a quiet machine of that speed the
scaled and raw numbers agree; the raw ones are printed alongside.
"""

from __future__ import annotations

import subprocess
import time
from pathlib import Path

# The kernel's time in the fast state of a 2-vCPU Xeon at 2.0 GHz: in-process,
# and as a fresh interpreter (python -S) that imports this module and runs it.
REFERENCE_S = 0.0145
REFERENCE_PROCESS_S = 0.066

_MODULUS = 2**40000 + 1


def _kernel() -> int:
    s = 0
    for i in range(180000):
        s += i * i
    x = 3**20000
    for i in range(600):
        x = (x * 7 + i) % _MODULUS
    return s ^ x


def probe() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def process_probe(python: str) -> float:
    """Seconds a fresh interpreter takes to start and run the kernel now."""
    code = f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import calib; calib._kernel()"
    start = time.perf_counter()
    subprocess.run([python, "-S", "-c", code], check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float, reference: float = REFERENCE_S) -> float:
    """``seconds`` of work timed between two probes, at the reference speed."""
    return seconds * reference / ((before + after) / 2)
