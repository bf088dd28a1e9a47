"""One workload as a closed loop in its own process.

    python3 bench/worker.py --manifest M --seconds S --trace 0|1 --out OUT

Run from the root of a checkout; imports qsatlab from its src/. One client
thread sends the next `qsatlab solve` (an in-process `qsatlab.cli.main` call)
only when the previous one has returned, in whole rounds over the manifest's
instances until S seconds have passed. Each verdict is checked against the
reference after its timing ends. With --trace 1, each public layer function
is wrapped at the name its caller looks it up, and the spans of each verdict
are folded into per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import check

# (module, attribute its caller looks up, span name)
SPANS = (
    ("qsatlab.cli", "main", "cli.main"),
    ("qsatlab.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("qsatlab.pipeline", "parse_dimacs", "cnf.parse_dimacs"),
    ("qsatlab.pipeline", "count_satisfying", "cnf.count_satisfying"),
    ("qsatlab.pipeline", "build_sat_circuit", "sat_circuit.build_sat_circuit"),
    ("qsatlab.pipeline", "prepare_uniform", "statevector.prepare_uniform"),
    ("qsatlab.pipeline", "run", "statevector.run"),
    ("qsatlab.pipeline", "success_probability", "sat_circuit.success_probability"),
    ("qsatlab.pipeline", "post_measure", "sat_circuit.post_measure"),
    ("qsatlab.chaos", "detect", "chaos.detect"),
    ("qsatlab.adaptive", "adapt", "adaptive.adapt"),
    ("qsatlab.adaptive", "classify", "adaptive.classify"),
    ("qsatlab.adaptive", "evolve", "dynamics.evolve"),
    ("qsatlab.pipeline", "render", "pipeline.render"),
)

# per-layer metric -> unit; reported per class as "<cls>.<metric>"
LAYER_UNITS = {
    "cnf.parse_dimacs_ms": "ms",
    "cnf.count_satisfying_ms": "ms",
    "cnf.assignments_per_s": "1/s",
    "sat_circuit.build_sat_circuit_ms": "ms",
    "sat_circuit.success_probability_ms": "ms",
    "sat_circuit.post_measure_ms": "ms",
    "sat_circuit.qubits": "count",
    "sat_circuit.gates": "count",
    "statevector.prepare_uniform_ms": "ms",
    "statevector.run_ms": "ms",
    "statevector.gate_ms": "ms",
    "statevector.state_mib": "MiB",
    "chaos.detect_us": "us",
    "adaptive.adapt_us": "us",
    "adaptive.classify_self_ms": "ms",
    "adaptive.samples": "count",
    "dynamics.evolve_calls": "count",
    "dynamics.evolve_ms": "ms",
    "pipeline.render_ms": "ms",
    "pipeline.emit_bytes": "bytes",
    "pipeline.self_ms": "ms",
    "cli.self_ms": "ms",
}
SAT_ONLY = ("dynamics.",)  # the damping branch is the only caller of evolve


def layer_metric_names() -> list[tuple[str, str]]:
    return [
        (f"{cls}.{name}", unit)
        for cls in ("sat", "unsat")
        for name, unit in LAYER_UNITS.items()
        if cls == "sat" or not name.startswith(SAT_ONLY)
    ]


class Tracer:
    """Spans (name, start, end, parent index) of the verdict in flight, plus
    the sizes some layers return; folded into one row per verdict."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.sizes: dict[str, int] = {}
        self.missing: list[str] = []

    def install(self) -> None:
        for module_name, attr, span in SPANS:
            module = sys.modules.get(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(getattr(module, attr), span))

    def _wrap(self, fn, span: str):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (span, start, end, parent)
            try:
                self._record_size(span, result)
            except (TypeError, ValueError, AttributeError):
                pass  # the layer returns another shape now; its sizes read 0
            return result

        return traced

    def _record_size(self, span: str, result) -> None:
        if span == "sat_circuit.build_sat_circuit":
            circuit, _layout = result
            self.sizes["qubits"] = circuit.num_qubits
            self.sizes["gates"] = len(circuit)
        elif span == "adaptive.classify":
            self.sizes["samples"] = len(result.trajectory)
        elif span == "pipeline.render":
            self.sizes["emit_bytes"] = len(result.encode())

    def fold(self, n: int) -> dict[str, float]:
        """Per-layer figures of the verdict just finished; clears the spans."""
        total = defaultdict(float)
        children = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[self.spans[parent][0]] += end - start
        size = self.sizes
        gates = size.get("gates", 0)
        run_ms = 1e3 * total["statevector.run"]
        count_s = total["cnf.count_satisfying"]
        row = {
            "cnf.parse_dimacs_ms": 1e3 * total["cnf.parse_dimacs"],
            "cnf.count_satisfying_ms": 1e3 * count_s,
            "cnf.assignments_per_s": 2**n / count_s if count_s else 0.0,
            "sat_circuit.build_sat_circuit_ms": 1e3 * total["sat_circuit.build_sat_circuit"],
            "sat_circuit.success_probability_ms": 1e3 * total["sat_circuit.success_probability"],
            "sat_circuit.post_measure_ms": 1e3 * total["sat_circuit.post_measure"],
            "sat_circuit.qubits": size.get("qubits", 0),
            "sat_circuit.gates": gates,
            "statevector.prepare_uniform_ms": 1e3 * total["statevector.prepare_uniform"],
            "statevector.run_ms": run_ms,
            "statevector.gate_ms": run_ms / gates if gates and calls["statevector.run"] else 0.0,
            "statevector.state_mib": (
                16 * 2 ** size.get("qubits", 0) / 2**20 if calls["statevector.prepare_uniform"] else 0.0
            ),
            "chaos.detect_us": 1e6 * total["chaos.detect"],
            "adaptive.adapt_us": 1e6 * total["adaptive.adapt"],
            "adaptive.classify_self_ms": 1e3 * (total["adaptive.classify"] - children["adaptive.classify"]),
            "adaptive.samples": size.get("samples", 0),
            "dynamics.evolve_calls": calls["dynamics.evolve"],
            "dynamics.evolve_ms": 1e3 * total["dynamics.evolve"],
            "pipeline.render_ms": 1e3 * total["pipeline.render"],
            "pipeline.emit_bytes": size.get("emit_bytes", 0),
            "pipeline.self_ms": 1e3 * (total["pipeline.run_pipeline"] - children["pipeline.run_pipeline"]),
            "cli.self_ms": 1e3 * (total["cli.main"] - children["cli.main"]),
        }
        self.spans.clear()
        self.sizes = {}
        return row


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop that touches no qsatlab code;
    it slows with the host, not with the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return 1e3 * (time.perf_counter() - start)


def amplifier_key(inst: dict) -> tuple:
    """What the amplifier's verdict depends on: (q^2, n) for chaos; the
    branch, gamma and the two levels for the stochastic classifier."""
    if inst["amp"] is None:
        return ("chaos", inst["r"], inst["n"])
    amp = inst["amp"]
    return ("stochastic", inst["cls"], amp["gamma_re"], amp["gamma_im"], amp["e0"], amp["e1"])


def solve(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(Path("src").resolve()))
    import qsatlab.cli as cli

    manifest = json.loads(Path(args.manifest).read_text())
    instances = manifest["instances"]
    emit_dir = Path(args.manifest).parent
    ops = []
    for inst in instances:
        emit = emit_dir / ("emit.csv" if "csv" in inst["argv"] else "emit.json")
        argv = ["solve", "--input", inst["path"], *inst["argv"], "--exit-verdict", "--emit", str(emit)]
        ops.append((inst, argv, emit))

    for cls in ("sat", "unsat"):  # lazy imports and first-call set-up, untimed
        inst, argv, _ = next(op for op in ops if op[0]["cls"] == cls)
        solve(cli, argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    latencies = {"sat": [], "unsat": []}
    layer_rows = {"sat": [], "unsat": []}
    failures: list[str] = []
    calibration: list[float] = []
    seen, repeats, attempted = set(), 0, 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        calibration.append(calibrate())
        for inst, argv, emit in ops:
            attempted += 1
            emit.unlink(missing_ok=True)  # a missing emission must not pass on stale bytes
            start = time.perf_counter()
            code = solve(cli, argv)
            elapsed = time.perf_counter() - start
            row = tracer.fold(inst["n"]) if tracer else None
            try:
                problem = check(inst, code, emit.read_text() if code in (10, 20) else "")
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"{inst['name']}: unreadable output ({type(exc).__name__}: {exc})"
            if problem:
                failures.append(problem)
                continue
            key = amplifier_key(inst)
            repeats += key in seen
            seen.add(key)
            latencies[inst["cls"]].append(elapsed)
            if row is not None:
                layer_rows[inst["cls"]].append(row)

    layers = {}
    if tracer:
        for name, _unit in layer_metric_names():
            cls, metric = name.split(".", 1)
            rows = layer_rows[cls]
            layers[name] = statistics.median(r[metric] for r in rows) if rows else 0.0

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "latencies_s": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_ms": calibration,
        "repeat_share": repeats / max(attempted - len(failures), 1),
        "layers": layers,
        "untraced": tracer.missing if tracer else [],
    }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
