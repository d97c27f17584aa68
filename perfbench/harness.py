"""Timed and traced runs of one workload, and the metrics they yield.

A timed run (tracing off) executes the workload's units round-robin
until every unit has run at least once and ``seconds`` have passed, and
reports the end-to-end metrics; unit times are in reference seconds
(see ``hostclock.py``), set-up times in host seconds.  A traced run
executes one untraced pass and then one traced pass of the same units,
checks that tracing left every output bit-identical, and reports the
per-layer metrics.

Every unit execution counts as attempted; it fails if it raises, if
its outputs differ bit for bit from the values recorded for the
variant in ``expected.json``, or if a repeat in the same process
produced different outputs.  Service sessions also count their own
ops and op failures (see ``workloads.run_session``).
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from measure import encode, summarize
from tracing import BUCKETS, Tracer
from workloads import variant_of

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")

#: Set-up is measured in this many fresh child processes, spread over
#: the timed run: the host keeps one speed for seconds at a time, so
#: probes run back to back all see the same one.
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "slowest_point_s": "s",
    "setup_s": "s",
}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    "sim.events": "count",
    "sim.resumes": "count",
    "sim.timeouts": "count",
    "sim.parks": "count",
    "sim.us_per_event": "us",
    "engine.waits": "count",
    "engine.kicks": "count",
    "engine.parks_per_kick": "ratio",
    "engine.lock_tries": "count",
    "engine.lock_hit_ratio": "ratio",
    "mpi.waits": "count",
    "mpi.preadys": "count",
    "coll.preadys": "count",
    "ib.wrs_posted": "count",
    "ib.cq_polls": "count",
    "ib.cq_poll_hit_ratio": "ratio",
    "core.partitions_per_wr": "ratio",
    "autotune.rounds": "count",
    "plan.lowerings": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.backend_reads": "count",
    "serve.conflicts": "count",
    "serve.get_p50_us": "us",
    "serve.get_p99_us": "us",
    "serve.commit_p50_us": "us",
    **{f"{bucket}.self_s": "s" for bucket in BUCKETS},
    "trace.overhead_ratio": "ratio",
    "trace.untraced_wall_s": "s",
    "process.peak_rss_mb": "MB",
}


def load_expected(path: str = EXPECTED) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)["workloads"]
    except FileNotFoundError:
        return {}


@dataclass
class Tally:
    """Attempts, failures and per-unit samples of one run."""

    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)
    #: ``perf_counter`` (start, end) of each sample, by unit label.
    spans: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    latencies_ns: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def execute(self, unit, expected: dict, after=None) -> float:
        """Run ``unit`` once, timed, and check its outputs."""
        start = time.perf_counter()
        try:
            result = unit.run()
        except Exception:
            result = None
            self.problems.append(f"{unit.label}: raised\n"
                                 + traceback.format_exc())
        end = time.perf_counter()
        elapsed = end - start
        self.samples.setdefault(unit.label, []).append(elapsed)
        self.spans.setdefault(unit.label, []).append((start, end))
        if after is not None:
            after()
        if result is None:
            self.attempted += 1
            self.failed += 1
            return elapsed
        self.attempted += result.attempted
        self.failed += result.failed
        if result.failed:
            self.problems.append(f"{unit.label}: {result.failed} of "
                                 f"{result.attempted} ops failed")
        for kind, values in result.latencies_ns.items():
            self.latencies_ns.setdefault(kind, []).extend(values)
        for name, value in result.facts.items():
            self.facts[name] = self.facts.get(name, 0) + value
        encoded = encode(result.outputs)
        first = self.outputs.setdefault(unit.label, encoded)
        mismatch = None
        if encoded != first:
            mismatch = "differ from their first run in this process"
        elif unit.has_expected and expected.get(unit.label) != encoded:
            mismatch = "differ from the recorded expected outputs"
        if mismatch is not None:
            self.failed += 1
            self.problems.append(f"{unit.label}: outputs {mismatch}")
        return elapsed


def _expected_for(workload: str, seed: int) -> dict:
    return load_expected().get(workload, {}).get(str(variant_of(seed)), {})


def timed_run(workload, seed: int, seconds: float, tmp: str,
              probe_cmd: list) -> dict:
    """End-to-end metrics of one workload (tracing off)."""
    units = workload.setup(seed, tmp)
    expected = _expected_for(workload.name, seed)
    tally = Tally()
    clock = workload.host_clock(tmp)
    # Start with no file-system write-back left from earlier runs: a
    # plan_service run creates and deletes about 20,000 files.
    os.sync()
    setup = []
    probing = 0.0
    with clock.running():
        start = time.perf_counter()

        def measured() -> float:
            return time.perf_counter() - start - probing

        passes = 0
        while True:
            for unit in units:
                tally.execute(unit, expected)
                if len(setup) < SETUP_PROBES * min(1.0, measured() / seconds):
                    began = time.perf_counter()
                    with clock.paused():
                        setup.append(setup_probe(probe_cmd))
                    probing += time.perf_counter() - began
                if passes and measured() >= seconds:
                    break
            else:
                passes += 1
                if measured() < seconds:
                    continue
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(probe_cmd))
    scaled = {label: [clock.scaled(*span) for span in spans]
              for label, spans in tally.spans.items()}
    medians = {label: statistics.median(values)
               for label, values in scaled.items()}
    metrics = {
        "wall_s": sum(medians.values()),
        "slowest_point_s": max(medians.values()),
        "setup_s": statistics.median(setup),
    }
    per_unit = min(len(values) for values in tally.samples.values())
    counts = {"wall_s": per_unit, "slowest_point_s": per_unit,
              "setup_s": len(setup)}
    report = [f"{label}: reference {_fmt_summary(summarize(values), 's')}"
              f"; host p50={statistics.median(tally.samples[label]):.6g} s"
              for label, values in scaled.items()]
    report.append(f"reference kernel: n={len(clock.costs)} "
                  f"p50={clock.median_cost() * 1e3:.4f} ms "
                  f"(nominal {clock.nominal * 1e3:g} ms)")
    return _result(tally, metrics, END_TO_END, counts, report)


def traced_run(workload, seed: int, tmp: str, repro_dir: str) -> dict:
    """Per-layer metrics: an untraced pass, then a traced pass."""
    units = workload.setup(seed, tmp)
    expected = _expected_for(workload.name, seed)

    plain = Tally()
    plain_wall = sum(plain.execute(unit, expected) for unit in units)
    # The high-water mark of set-up plus one pass: later passes only
    # re-fill freed memory, so it does not depend on the run length.
    peak_rss_mb = _max_rss_mb()

    tracer = Tracer(repro_dir, HERE)
    traced = Tally()
    with tracer.active():
        traced_wall = sum(traced.execute(unit, expected, tracer.unit_done)
                          for unit in units)
    for label, encoded in plain.outputs.items():
        if traced.outputs.get(label) != encoded:
            traced.failed += 1
            traced.problems.append(
                f"{label}: traced outputs differ from untraced outputs")

    c = tracer.exact_counts()
    seconds = tracer.self_seconds()
    lat = {kind: summarize([ns / 1e3 for ns in values])
           for kind, values in plain.latencies_ns.items() if values}
    facts = traced.facts
    metrics = {
        "sim.events": c["sim.events"],
        "sim.resumes": c["sim.resumes"],
        "sim.timeouts": c["sim.timeouts"],
        "sim.parks": c["sim.parks"],
        "sim.us_per_event": _ratio(plain_wall * 1e6, c["sim.events"]),
        "engine.waits": c["engine.waits"],
        "engine.kicks": c["engine.kicks"],
        "engine.parks_per_kick": _ratio(c["sim.parks"], c["engine.kicks"]),
        "engine.lock_tries": c["engine.lock_tries"],
        "engine.lock_hit_ratio": _ratio(c["engine.lock_tries_hits"],
                                        c["engine.lock_tries"]),
        "mpi.waits": c["mpi.waits"],
        "mpi.preadys": c["mpi.preadys"],
        "coll.preadys": c["coll.preadys"],
        "ib.wrs_posted": c["ib.wrs_posted"],
        "ib.cq_polls": c["ib.cq_polls"],
        "ib.cq_poll_hit_ratio": _ratio(c["ib.cq_polls_hits"],
                                       c["ib.cq_polls"]),
        "core.partitions_per_wr": _ratio(c["core.preadys"],
                                         c["core.wrs_posted"]),
        "autotune.rounds": c["autotune.rounds"],
        "plan.lowerings": c["plan.lowerings"],
        "serve.cache_hit_ratio": _ratio(facts.get("cache_hits", 0),
                                        facts.get("cache_lookups", 0)),
        "serve.backend_reads": c["serve.backend_reads"],
        "serve.conflicts": facts.get("conflicts", 0),
        "serve.get_p50_us": lat.get("get", {}).get("p50", 0.0),
        "serve.get_p99_us": lat.get("get", {}).get("p99", 0.0),
        "serve.commit_p50_us": lat.get("commit", {}).get("p50", 0.0),
        **{f"{bucket}.self_s": value for bucket, value in seconds.items()},
        "trace.overhead_ratio": _ratio(traced_wall, plain_wall),
        "trace.untraced_wall_s": plain_wall,
        "process.peak_rss_mb": peak_rss_mb,
    }
    counts = dict.fromkeys(PER_LAYER, 1)
    for name, kind in (("serve.get_p50_us", "get"),
                       ("serve.get_p99_us", "get"),
                       ("serve.commit_p50_us", "commit")):
        counts[name] = lat.get(kind, {}).get("n", 0)
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems = plain.problems + traced.problems
    report = [f"untraced pass {plain_wall:.3f} s, traced pass "
              f"{traced_wall:.3f} s"]
    return _result(traced, metrics, PER_LAYER, counts, report)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _max_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(cmd: list) -> float:
    """Set-up seconds measured in one fresh process."""
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _fmt_summary(summary: dict, unit: str) -> str:
    parts = [f"n={summary['n']}"]
    parts += [f"{key}={value:.6g} {unit}" for key, value in summary.items()
              if key != "n"]
    return " ".join(parts)


def _result(tally: Tally, metrics: dict, units: dict, counts: dict,
            report: list) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "counts": counts,
        "report": report,
        "problems": tally.problems,
    }


def print_result(result: dict, out=sys.stdout) -> None:
    """The human-readable report, then the one-line JSON verdict."""
    for line in result["report"]:
        print(line, file=out)
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=out)
    print(f"{'metric':<26} {'value':>16} {'unit':<6} samples", file=out)
    for name, metric in result["metrics"].items():
        print(f"{name:<26} {metric['value']:>16.6f} {metric['unit']:<6} "
              f"{result['counts'][name]}", file=out)
    print(f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=out)
    verdict = {key: result[key]
               for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(verdict), file=out, flush=True)
