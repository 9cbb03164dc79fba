"""One round of each perfbench workload, in process, against this library.

A renamed or deleted name that the benchmark calls, or a change that breaks
a workload's own check, fails here.  The traced names are looked up without
layers.install, which would patch the library for the rest of the session.
"""
import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_round_passes_its_check(name, tmp_path):
    work = workloads.WORKLOADS[name](7, str(tmp_path), spans.Tracer())
    attempted, failed, out = work.run_round(0)
    assert attempted > 0 and failed == 0, out
    work.check(out)


def test_traced_names_exist():
    def lookup(module_name, attr):
        holder = importlib.import_module(layers.PACKAGE + "." + module_name)
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        return holder

    missing = [t[0] + "." + t[1] for t in layers.TARGETS
               if lookup(t[0], t[1]) is None]
    # corner.project_operator is gone from the library (project_pair covers
    # it); the benchmark lists it until its next change
    assert missing == ["corner.project_operator"]
