"""Host-speed normalisation.

On a shared 2-vCPU virtual machine (Python 3.11), host speed changed by up
to 1.8x within seconds: a fixed pure-Python loop took 3.3 ms in one minute
and 5.7 ms in the next, and op times followed it.  Raw times therefore spread
more between runs than any regression bound allows.  Every reported time is
scaled to a nominal host speed by a reference task timed in the same run,
close in time to the work it scales:

- in a worker, ``spin()`` runs in the worker process itself between ops, and
  an op's time is multiplied by ``SPIN_NOMINAL_S`` over the spin time that
  goes with it (see ``worker``);
- for whole processes (one-shot CLI calls, set-up), a reference process
  (``REF_CMD``: start an interpreter, import a fixed set of stdlib modules)
  is timed next to them, and the process time is multiplied by
  ``REF_NOMINAL_S`` over the reference time (see ``harness``).

Neither reference touches cmbrauer, so a change to the program moves the
scaled times exactly as it moves the raw ones.  Runs record the raw medians
and the reference medians as well.
"""

from __future__ import annotations

import sys
import time

SPIN_NOMINAL_S = 0.004
REF_NOMINAL_S = 0.150
REF_CMD = [sys.executable, "-c",
           "import asyncio, email.mime.multipart, http.client, xml.etree.ElementTree, decimal, "
           "fractions, statistics, argparse, json, logging, unittest, csv, sqlite3, tarfile, zipfile, pydoc"]


def spin() -> float:
    """Seconds taken by a fixed pure-Python loop (dict, int arithmetic)."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    x = 0
    for i in range(20000):
        x = (x * 31 + i) % 1000003
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
    return time.perf_counter() - start
