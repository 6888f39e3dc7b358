"""Workload factory kept for ``bench/specs.py``.

Every named run is a :class:`~repro.sim.parallel.SweepPoint` built by
:func:`repro.sim.parallel.build_simulator`.  This module keeps only
:func:`app_factory`, because ``bench/specs.py`` imports it and the
benchmark's sources change only together with its recorded results.
"""

from __future__ import annotations

import functools

from repro.workloads.mixes import make_workload


def app_factory(app: str, seed: int = 1):
    """``config -> Workload`` for the workload named ``app``."""
    return functools.partial(make_workload, app, seed=seed)
