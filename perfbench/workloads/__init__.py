"""The benchmark's workloads, imported by name so that a set-up probe pays
only for the ``repro`` modules its own workload uses."""

from __future__ import annotations

import importlib

#: Workload name -> "module:class".
WORKLOADS = {
    "sweep_cold": "perfbench.workloads.sweep_cold:SweepCold",
    "service_mixed": "perfbench.workloads.service_mixed:ServiceMixed",
    "verify_exhaustive": "perfbench.workloads.verify_exhaustive:VerifyExhaustive",
}


def load(name: str):
    """The workload class registered under ``name``."""
    module_name, class_name = WORKLOADS[name].split(":")
    return getattr(importlib.import_module(module_name), class_name)
