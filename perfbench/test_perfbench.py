"""Self-tests of the benchmark, on tiny sizes of each workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def tiny(name, seed=1, cls=None):
    """The workload at a size that runs in seconds."""
    cls = cls or harness.WORKLOADS[name]
    if name == "compile-suite":
        return cls(seed, programs=("eqntott",))
    if name == "execute-suite":
        return cls(seed, programs=("ijpeg",))
    return cls(seed, modules=4)


@pytest.fixture(scope="module")
def runs():
    """Each tiny workload measured untraced and traced, once per module."""
    out = {}
    for name in harness.WORKLOADS:
        out[name] = (
            harness.measure(tiny(name), 0, trace=False),
            harness.measure(tiny(name), 0, trace=True, src_root=ROOT / "src"),
        )
    return out


def test_workload_names_match_benchmark_json():
    assert set(harness.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_tiny_run_emits_every_named_metric(runs, name):
    untraced, traced = runs[name]
    assert set(untraced.metrics) == END_TO_END
    assert set(traced.metrics) == PER_LAYER
    for key, value in untraced.metrics.items():
        assert math.isfinite(value) and value > 0, key
    assert untraced.ledger.attempted > 0
    assert untraced.ledger.failed == 0, untraced.ledger.problems
    assert traced.metrics["fail_ratio"] == 0
    assert traced.metrics["trace.overhead_ratio"] > 0


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_traced_and_untraced_counters_agree(runs, name):
    untraced, traced = runs[name]
    assert untraced.counters == traced.counters
    again = harness.measure(tiny(name, seed=2), 0, trace=True, src_root=ROOT / "src")
    assert again.counters == traced.counters
    assert again.layer_counters == traced.layer_counters


def test_layers_measured_where_they_work(runs):
    scale = runs["compile-scale"][1].metrics
    suite = runs["compile-suite"][1].metrics
    execute = runs["execute-suite"][1].metrics
    for metrics in (scale, suite):
        assert metrics["core.sites_considered"] > 0
        assert metrics["opt.constprop.calls"] > 0
        assert metrics["resilience.proc_snapshots"] > 0
        assert metrics["profile.train_steps"] > 0
        assert metrics["machine.instructions"] == 0
    assert scale["core.regions_formed"] > 0
    assert execute["core.sites_considered"] == 0
    assert execute["machine.instructions"] > 0
    assert execute["machine.sink_s"] > 0
    assert execute["interp.codegen.steps_per_s"] > 0


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_wrong_expected_output_counts_as_failed(name):
    base = harness.WORKLOADS[name]

    class Wrong(base):
        def setup(self, ledger):
            state = super().setup(ledger)
            if hasattr(state, "expected"):
                state.expected = {k: (code + 1, out) for k, (code, out) in state.expected.items()}
            else:
                for binary in state.binaries:
                    binary.expected = (binary.expected[0] + 1, binary.expected[1])
            return state

    measured = harness.measure(tiny(name, cls=Wrong), 0, trace=True, src_root=ROOT / "src")
    assert measured.metrics["fail_ratio"] > 0
    assert measured.ledger.failed > 0


def test_wrappers_are_removed_after_a_traced_pass(runs):
    import repro.frontend.driver as driver
    import repro.linker.toolchain as toolchain
    import repro.resilience.snapshot as snapshot

    assert toolchain.compile_program is driver.compile_program
    assert not hasattr(driver.compile_program, "__wrapped__")
    assert not hasattr(snapshot.ProcedureSnapshot.__init__, "__wrapped__")


def test_cold_copy_behaves_like_the_original():
    from repro.interp.interpreter import run_program
    from repro.workloads.suite import get_workload

    w = get_workload("compress")
    built = harness.Toolchain(list(w.sources), w.train_inputs, config=harness.CONFIG).build("cp")
    copy = harness.cold_copy(built.program)
    assert copy is not built.program
    assert run_program(copy, w.train_inputs[0]).behavior() == (
        run_program(built.program, w.train_inputs[0]).behavior()
    )
    assert harness.isom_sha(copy) == harness.isom_sha(built.program)


def test_clock_leaves_probes_out_and_measures_host_speed():
    import signal
    import time

    from perfbench import clock

    handler = signal.getsignal(signal.SIGALRM)
    sampler = clock.Sampler()
    with sampler.sampling():
        mark, started, wall = sampler.mark(), sampler.now(), time.perf_counter()
        while time.perf_counter() - wall < 0.4:
            pass
        net, wall = sampler.now() - started, time.perf_counter() - wall
    probes = sampler.samples[mark:]
    assert len(probes) >= 3
    assert net == pytest.approx(wall - sampler.stolen, abs=1e-3)
    assert sampler.stolen >= sum(probes)
    assert sampler.factor(mark) == pytest.approx(
        sum(clock.REFERENCE_S / p for p in probes) / len(probes))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert clock.Sampler().factor(0) == 1.0  # no probe, no scaling


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
