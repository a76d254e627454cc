"""qmu benchmark: one workload per process, items run one after another.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``qmu`` is imported from ``src/``.
With ``--trace 0`` the last stdout line reports the end-to-end metrics
(``setup_s``, ``items_per_s``, ``peak_rss_mb``); with ``--trace 1`` the
per-layer metrics of a traced run.  A readable table goes to stderr.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 2        # extra cold set-ups per run, in child processes
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, run the warm-up item, print setup_s and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    return args


def import_program():
    """Import qmu from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "qmu" / "__init__.py").is_file():
        sys.exit(f"no qmu sources under {src}")
    sys.path.insert(0, str(src))
    import qmu

    if Path(qmu.__file__).resolve().parent != (src / "qmu").resolve():
        sys.exit(f"imported qmu from {qmu.__file__}, not from {src}")


def run_item(item, state):
    """Time the item's call, check its output, and count it."""
    result, elapsed = None, None
    start = time.perf_counter()
    try:
        result = item.call()
        elapsed = time.perf_counter() - start
        problems = item.check(result)
    except Exception as exc:  # a raising call or unreadable output is a failed item
        elapsed = elapsed if elapsed is not None else time.perf_counter() - start
        problems = [f"raised {type(exc).__name__}: {exc}"]
    state["attempted"] += item.weight
    if problems:
        state["failed"] += item.weight
        fault = item.known_fault
        if fault is None or not all(p.startswith(fault) for p in problems):
            state["correct"] = False
            print(f"FAILED {item.label}: {'; '.join(problems)}", file=sys.stderr)
    return result, elapsed


def setup_probe_seconds(args) -> list:
    """Cold set-up times of fresh processes running only the set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    marks = {"start": PROCESS_START, "imported": time.perf_counter()}
    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        state = {"attempted": 0, "failed": 0, "correct": True}
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        marks["inputs"] = time.perf_counter()
        warm = workload.warmup()
        warm_state = {"attempted": 0, "failed": 0, "correct": True}
        warm_result, _ = run_item(warm, warm_state)
        marks["ready"] = time.perf_counter()
        setup_s = marks["ready"] - marks["start"]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        state["correct"] = warm_state["correct"]
        tracer = Tracer() if args.trace else None
        setup_samples = [setup_s] if tracer else [setup_s] + setup_probe_seconds(args)
        round_seconds = []  # per round, the timed call of each item in order
        with tracer or contextlib.nullcontext():
            if tracer is not None:
                # Same input with tracing on: the program's output must not change.
                again, _ = run_item(workload.warmup(), warm_state)
                if workloads.fingerprint(again) != workloads.fingerprint(warm_result):
                    warm_state["correct"] = False
                    print("FAILED traced output differs from untraced output", file=sys.stderr)
                state["correct"] = warm_state["correct"]
                tracer.reset()
            timed_start = time.perf_counter()
            r = 0
            while r == 0 or time.perf_counter() - timed_start < args.seconds:
                items = workload.items(r)
                round_seconds.append([run_item(item, state)[1] for item in items])
                r += 1
        # Every round holds the same item slots: the median time of each slot
        # over the rounds gives a round time that host-noise bursts barely move.
        round_weight = sum(item.weight for item in items)
        items_per_s = round_weight / sum(statistics.median(slot) for slot in zip(*round_seconds))
        problems = workload.final_checks()
        if problems:
            state["correct"] = False
            print("FAILED " + "; ".join(problems), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    if tracer is not None:
        setup_ms = {
            "setup.import_ms": (marks["imported"] - marks["start"]) * 1e3,
            "setup.inputs_ms": (marks["inputs"] - marks["imported"]) * 1e3,
            "setup.warmup_ms": (marks["ready"] - marks["inputs"]) * 1e3,
        }
        figures = tracer.metrics(state["attempted"], setup_ms)
    else:
        figures = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "items_per_s": (items_per_s, "item/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(f"{args.workload} seed={args.seed} trace={args.trace} rounds={len(round_seconds)} "
          f"attempted={state['attempted']} failed={state['failed']} correct={state['correct']} "
          f"items_per_s={items_per_s:.6g} setup_samples={setup_samples}",
          file=sys.stderr)
    for name, (value, unit) in figures.items():
        print(f"  {name:52s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": state["correct"],
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
