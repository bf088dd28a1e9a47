"""qsatlab benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The command writes the workload's seeded
inputs under .bench_build/bench/, measures set-up time in fresh interpreters,
runs the workload as a closed loop in its own process (bench/worker.py),
writes BENCH_<label>.json with machine info, and prints every metric by name
and unit. Its last line is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, generate
from worker import layer_metric_names

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 4  # timed imports before the workload, and again after it
SETUP_SNIPPET = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import qsatlab.cli; print(time.perf_counter() - t)"
)
END_TO_END = [
    ("setup_s", "s"),
    ("sat_p50_ms", "ms"),
    ("unsat_p50_ms", "ms"),
    ("sat_p10_ms", "ms"),
    ("unsat_p10_ms", "ms"),
    ("peak_rss_mb", "MiB"),
]


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def import_seconds() -> float:
    out = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET], capture_output=True, text=True, timeout=60, check=True
    )
    return float(out.stdout.strip())


def machine_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "cpu": cpu,
        "caches": caches,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
    }


def write_inputs(workdir: Path, workload: str, seed: int) -> tuple[Path, list[dict]]:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    instances = generate(workload, seed)
    for inst in instances:
        path = workdir / f"{inst['name']}.cnf"
        path.write_text(inst.pop("dimacs"))
        inst["path"] = str(path)
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps({"workload": workload, "seed": seed, "instances": instances}))
    return manifest, instances


def describe(instances: list[dict]) -> dict:
    """Make-up of the inputs: families, widths and class counts."""
    families: dict[str, dict] = {}
    for inst in instances:
        key = f"{inst['family']}/{inst['cls']}"
        fam = families.setdefault(key, {"count": 0, "n": inst["n"], "m": set(), "width": set(), "r": []})
        fam["count"] += 1
        fam["m"].add(inst["m"])
        fam["width"].add(inst["width"])
        fam["r"].append(inst["r"])
    for fam in families.values():
        fam["m"], fam["width"] = sorted(fam["m"]), sorted(fam["width"])
    configs = sorted({json.dumps(i["amp"], sort_keys=True) for i in instances if i["amp"]})
    return {"families": families, "amplifier_configs": [json.loads(c) for c in configs]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/qsatlab/cli.py").is_file():
        return fail("run from the root of a qsatlab checkout (src/qsatlab/cli.py not found)")

    label = f"{args.workload}_s{args.seed}" + ("_trace" if args.trace else "")
    workdir = Path(".bench_build") / "bench" / label
    manifest, instances = write_inputs(workdir, args.workload, args.seed)

    out = workdir / "worker.json"
    try:
        import_seconds()  # compiles bytecode and fills the file cache, untimed
        setup = [import_seconds() for _ in range(SETUP_REPEATS)]
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)],
            check=True, timeout=args.seconds + 120,
        )
        setup += [import_seconds() for _ in range(SETUP_REPEATS)]
    except (subprocess.SubprocessError, ValueError) as exc:
        return fail(f"qsatlab failed to import or to run the workload: {exc}")
    res = json.loads(out.read_text())
    for problem in res["failures"]:
        print(f"FAILED {problem}")

    lat = {cls: [1e3 * x for x in xs] for cls, xs in res["latencies_s"].items()}
    if min(len(xs) for xs in lat.values()) < 2:
        return fail(f"too few checked verdicts per class: { {c: len(x) for c, x in lat.items()} }")
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    for cls, xs in lat.items():
        values[f"{cls}_p50_ms"] = statistics.median(xs)
        values[f"{cls}_p10_ms"] = statistics.quantiles(xs, n=10)[0]

    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit} for name, unit in layer_metric_names()}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    calib = res["calibration_ms"]
    report = {
        "label": label,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "inputs": describe(instances),
        "verdicts": {cls: len(xs) for cls, xs in lat.items()},
        "repeat_share": res["repeat_share"],
        "setup_samples_s": setup,
        "end_to_end": {name: values[name] for name, _ in END_TO_END},
        "per_layer": res["layers"],
        "calibration_ms": {"median": statistics.median(calib), "min": min(calib), "max": max(calib)},
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "untraced": res["untraced"],
    }
    Path(f"BENCH_{label}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['attempted']} attempted, {res['failed']} failed, "
          f"verdicts sat={len(lat['sat'])} unsat={len(lat['unsat'])}, "
          f"amplifier configs repeated {100 * res['repeat_share']:.1f}%")
    print(f"calibration loop (reference, not a metric): median {report['calibration_ms']['median']:.2f} ms, "
          f"min {min(calib):.2f}, max {max(calib):.2f} over {len(calib)} rounds")
    for name in res["untraced"]:
        print(f"not traced (name not found): {name}")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
