"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from harness import END_TO_END, PER_LAYER, Tally, load_expected  # noqa: E402
from hostclock import (REF_NOMINAL_S, HostClock,  # noqa: E402
                       reference_kernel, service_reference_kernel)
from measure import encode, summarize  # noqa: E402
from tracing import layer_of  # noqa: E402
from workloads import Unit, UnitResult  # noqa: E402

REPRO = os.path.join(ROOT, "src", "repro")


# -- attribution by layer path ------------------------------------------


@pytest.mark.parametrize("relative, bucket", [
    ("sim/core.py", "sim"),
    ("ib/nic.py", "ib"),
    ("engine/progress.py", "engine"),
    ("coll/base.py", "coll"),
    ("serve/shard.py", "serve"),
    ("bench/sweep.py", "bench"),
    ("chaos/campaign.py", "misc"),
    ("config.py", "misc"),
    ("__init__.py", "misc"),
])
def test_repro_sources_attribute_to_their_package(relative, bucket):
    assert layer_of(os.path.join(REPRO, relative), REPRO, BENCH) == bucket


@pytest.mark.parametrize("filename, bucket", [
    (os.path.join(BENCH, "tracing.py"), "harness"),
    # The kernel's dispatch hook runs only because tracing attached it.
    (os.path.join(REPRO, "sim", "profile.py"), "harness"),
    ("~", "other"),
    ("/usr/lib/python3.11/heapq.py", "other"),
    # A sibling directory sharing the prefix is not inside the package.
    (REPRO + "_old/sim/core.py", "other"),
    # Another copy of repro elsewhere is not this checkout's code.
    ("/elsewhere/src/repro/sim/core.py", "other"),
])
def test_non_layer_sources_attribute_outside_the_layers(filename, bucket):
    assert layer_of(filename, REPRO, BENCH) == bucket


# -- bit-exact output check ---------------------------------------------


def _decode(value):
    """Inverse of ``encode`` for recorded outputs (hex strings -> float)."""
    if isinstance(value, str) and value.lstrip("-").startswith("0x"):
        return float.fromhex(value)
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def _nudge_first_float(value):
    """Copy of ``value`` with its first float moved by one ulp."""
    done = []

    def walk(v):
        if isinstance(v, float) and not done:
            done.append(True)
            return math.nextafter(v, math.inf)
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if isinstance(v, list):
            return [walk(x) for x in v]
        return v

    out = walk(value)
    assert done, "no float to perturb"
    return out


def _check(outputs, expected: dict) -> Tally:
    tally = Tally()
    unit = Unit("p", lambda: UnitResult(outputs=outputs))
    tally.execute(unit, expected)
    return tally


def test_recorded_outputs_pass_and_one_ulp_off_fails():
    recorded = load_expected()
    assert set(recorded) == {"halo_stencil", "fleet_contended"}
    for workload, variants in recorded.items():
        label, encoded = next(iter(variants["0"].items()))
        outputs = _decode(encoded)
        assert encode(outputs) == encoded
        assert _check(outputs, {"p": encoded}).failed == 0
        tally = _check(_nudge_first_float(outputs), {"p": encoded})
        assert (tally.attempted, tally.failed) == (1, 1), workload
        assert "expected" in tally.problems[0]


def test_missing_expected_value_fails():
    assert _check({"t": 1.0}, {}).failed == 1


def test_a_repeat_with_different_outputs_fails():
    tally = Tally()
    values = iter([1.0, math.nextafter(1.0, 2.0)])
    unit = Unit("p", lambda: UnitResult(outputs=next(values)),
                has_expected=False)
    tally.execute(unit, {})
    tally.execute(unit, {})
    assert (tally.attempted, tally.failed) == (2, 1)


def test_a_raising_unit_counts_as_failed():
    def boom():
        raise RuntimeError("boom")

    tally = Tally()
    tally.execute(Unit("p", boom), {})
    assert (tally.attempted, tally.failed) == (1, 1)


# -- percentile helper --------------------------------------------------


def test_small_samples_report_count_and_median_only():
    assert summarize([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}


@pytest.mark.parametrize("n, tails", [
    (99, []),
    (100, ["p90"]),
    (999, ["p90"]),
    (1000, ["p90", "p99"]),
    (10000, ["p90", "p99", "p99.9"]),
])
def test_tails_need_ten_samples_beyond_them(n, tails):
    summary = summarize(range(n))
    assert summary["n"] == n
    assert sorted(k for k in summary if k not in ("n", "p50")) == tails
    for key in tails:
        assert sum(1 for v in range(n) if v > summary[key]) >= 10


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        summarize([])


# -- host-speed correction -----------------------------------------------


def _clock(costs):
    # One sample every 0.1 s with the given costs.
    clock = HostClock()
    clock.stamps = [0.1 * k for k in range(1, len(costs) + 1)]
    clock.costs = list(costs)
    return clock


def test_reference_seconds_leave_out_samples_and_scale_by_host_speed():
    # Ten samples fall inside [0.05, 1.05); at nominal speed the
    # interval reads as its length less their cost.
    nominal = _clock([REF_NOMINAL_S] * 19)
    assert nominal.scaled(0.05, 1.05) == pytest.approx(
        1.0 - 10 * REF_NOMINAL_S)
    # On a host at half speed the same span holds half the work.
    slow = _clock([2 * REF_NOMINAL_S] * 19)
    assert slow.scaled(0.05, 1.05) == pytest.approx(
        (1.0 - 20 * REF_NOMINAL_S) / 2)


def test_reference_seconds_follow_the_speed_around_each_stretch():
    # The host is at nominal speed for 2 s, then at half speed for 2 s.
    clock = _clock([REF_NOMINAL_S] * 20 + [2 * REF_NOMINAL_S] * 20)
    assert clock.scaled(0.05, 1.05) == pytest.approx(
        1.0 - 10 * REF_NOMINAL_S)
    assert clock.scaled(2.95, 3.95) == pytest.approx(
        (1.0 - 20 * REF_NOMINAL_S) / 2)


def test_host_clock_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = HostClock()
    with clock.running():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.costs) >= 3
    assert 0 < clock.scaled(start, end)


def test_reference_kernels_repeat_and_stay_in_their_directory(tmp_path):
    assert reference_kernel() == reference_kernel()
    first = service_reference_kernel(str(tmp_path))
    assert service_reference_kernel(str(tmp_path)) == first
    assert os.listdir(tmp_path) == ["reference.json"]


# -- the contract file ----------------------------------------------------


def test_benchmark_json_names_the_metrics_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "halo_stencil",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- exact work counts ----------------------------------------------------

_COUNTS = textwrap.dedent("""
    import json, sys
    sys.path[:0] = [{bench!r}, {src!r}]
    import harness, workloads
    real = workloads.get_workload("halo_stencil")

    class CheapestPoint:
        # The fixed T=2 point: every layer of the workload, in seconds.
        name = real.name
        def setup(self, seed, tmp):
            return real.setup(seed, tmp)[1:2]

    result = harness.traced_run(CheapestPoint(), 1, {tmp!r}, {repro!r})
    assert result["correct"], result["problems"]
    print(json.dumps({{name: m["value"] for name, m in
                       result["metrics"].items()
                       if m["unit"] in ("count", "ratio")
                       and name != "trace.overhead_ratio"}}))
""")


def _traced_counts(hash_seed: str, tmp) -> dict:
    code = _COUNTS.format(bench=BENCH, src=os.path.join(ROOT, "src"),
                          repro=REPRO, tmp=str(tmp))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_work_counts_repeat_across_runs_and_hash_seeds(tmp_path):
    first = _traced_counts("0", tmp_path)
    assert first["sim.events"] > 0 and first["ib.wrs_posted"] > 0
    assert _traced_counts("0", tmp_path) == first
    assert _traced_counts("1", tmp_path) == first
