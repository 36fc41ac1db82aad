"""claimcheck benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark generates the workload's
inputs from the seed, runs the claimcheck CLI from the checkout's src/ on
them (mock embedder, mock LLM) for about S seconds, checks every output,
prints a table and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a traced
run (see tracing.py). Exit code 0 when every check passed, 1 when one
failed, 2 when the checkout has no claimcheck sources. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(BENCH, "launch.py")
COMMAND_TIMEOUT_S = 150
PROBES_PER_ITERATION = 2  # set-up probes before each untraced iteration


@dataclass
class Command:
    """One finished CLI process, timed from outside."""

    argv: list[str]
    rc: int
    wall: float
    setup: float | None  # seconds from process start to the first claim's work
    rss_mb: float
    report: str
    log: str


class Context:
    """Work directory, inputs and the CLI launcher of one benchmark run."""

    def __init__(self, work: str):
        self.work = work
        self.inputs = os.path.join(work, "inputs")
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", TMPDIR=work)
        self._n = 0

    def path(self, *parts: str) -> str:
        return os.path.join(self.inputs, *parts)

    def fresh(self, name: str) -> str:
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def cli(self, argv: list[str], mode: str = "plain") -> Command:
        self._n += 1
        report = os.path.join(self.work, f"cmd{self._n}.json")
        log_path = os.path.join(self.work, f"cmd{self._n}.log")
        with open(log_path, "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, LAUNCH, report, mode, "--", *argv],
                cwd=self.work, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup = None
        if os.path.isfile(report):
            with open(report, encoding="utf-8") as fh:
                first = json.load(fh).get("first_work")
            if first is not None:
                setup = first - start
        return Command(argv, proc.returncode, wall, setup, usage.ru_maxrss / 1024.0,
                       report, log_path)


# ---------------------------------------------------------------------------
# workloads: prep (untimed), the primary command, one timed iteration


def _verify_args(ctx: Context, store: str, cache: str, out: str) -> list[str]:
    return [
        "verify", "--dataset", ctx.path("dataset.json"), "--knowledge-store", store,
        "--train-set", ctx.path("train.json"), "--mock-script", ctx.path("script.json"),
        "--cache-dir", cache, "--output-dir", out,
    ]


def _evaluate_args(ctx: Context, out: str) -> list[str]:
    return ["evaluate", "--dataset", ctx.path("dataset.json"), "--output-dir", out]


class Workload:
    """Inputs are generated; prep is untimed; iteration() is one timed
    pass: verify, then evaluate on its predictions."""

    trace_dir = None  # where prep left trace_*.json files to digest

    def prep(self, ctx: Context) -> None:
        pass

    def primary(self, ctx: Context, tag: str) -> list[str]:
        """The verify command, whose set-up time is measured."""
        raise NotImplementedError

    def iteration(self, ctx: Context, tag: str, mode: str):
        argv = self.primary(ctx, tag)
        out = argv[argv.index("--output-dir") + 1]
        cmds = [ctx.cli(argv, mode), ctx.cli(_evaluate_args(ctx, out), mode)]
        return out, cmds


class PaperCold(Workload):
    """Few paper-scale claims, per-claim store files, empty embedding cache."""

    def primary(self, ctx, tag):
        return _verify_args(ctx, ctx.path("store"), ctx.fresh(f"cache-{tag}"),
                            ctx.fresh(f"out-{tag}")) + ["--jobs", "1"]


class RerunWarm(Workload):
    """Many modest claims, one combined store, embedding cache filled in
    prep; QA-dense gold and replies, so evaluate is a large share."""

    def prep(self, ctx):
        self.cache = os.path.join(ctx.work, "cache")
        self.trace_dir = os.path.join(ctx.work, "prep")
        cmd = ctx.cli([
            "retrieve", "--dataset", ctx.path("dataset.json"),
            "--knowledge-store", ctx.path("store"), "--cache-dir", self.cache,
            "--output-dir", self.trace_dir, "--jobs", "2",
        ])
        if cmd.rc != 0:
            raise RuntimeError(f"prep retrieve exited {cmd.rc}; see {cmd.log}")

    def primary(self, ctx, tag):
        return _verify_args(ctx, ctx.path("store.jsonl"), self.cache,
                            ctx.fresh(f"out-{tag}")) + [
            "--jobs", "2", "--k", "8", "--set", "retrieval.lambda=0.6",
        ]


WORKLOADS = {"paper_cold": PaperCold, "rerun_warm": RerunWarm}

# Where each workload spends its time at the baseline, checked on the
# traced run. Printed, not enforced: moving these numbers is what later
# changes are for, and they must not make the run count as incorrect.
SANITY = {
    "paper_cold": [
        ("dense.cache_hit_ratio == 0", lambda m: m["dense.cache_hit_ratio"] == 0.0),
        ("corpus.store_useful_ratio == 1", lambda m: m["corpus.store_useful_ratio"] == 1.0),
    ],
    "rerun_warm": [
        ("dense.cache_hit_ratio == 1", lambda m: m["dense.cache_hit_ratio"] == 1.0),
        ("corpus.store_useful_ratio < 0.1", lambda m: m["corpus.store_useful_ratio"] < 0.1),
        ("scoring.wall_share > 0.2", lambda m: m["scoring.wall_share"] > 0.2),
    ],
}


# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, traced: bool, work: str) -> dict:
    import generate
    import checks

    ctx = Context(work)
    manifest = generate.generate(workload, seed, ctx.inputs)
    n_claims = len(manifest["labels"])
    spec = WORKLOADS[workload]()
    spec.prep(ctx)
    own_bytes = {}
    for name in os.listdir(ctx.path("store")):
        own_bytes[int(name.split(".")[0])] = os.path.getsize(ctx.path("store", name))

    # Untimed warm-up: byte-compiles the sources and warms the page cache.
    # Flushing the written inputs now keeps their write-back out of the
    # timed commands; the same is done after every iteration.
    ctx.cli(spec.primary(ctx, "warm"), "probe")
    os.sync()

    start = time.monotonic()
    setups = []
    iterations = []
    problems = []
    while True:
        it = len(iterations)
        mode = "trace" if traced and it % 2 == 1 else "plain"
        t0 = time.monotonic()
        # probes spread over the run sample set-up time in every phase of
        # the machine's speed, not only in the first seconds
        for _ in range(0 if traced else PROBES_PER_ITERATION):
            cmd = ctx.cli(spec.primary(ctx, "probe"), "probe")
            if cmd.setup is not None:
                setups.append(cmd.setup)
        out, cmds = spec.iteration(ctx, f"it{it}", mode)
        record = {"mode": mode, "cmds": cmds, "out": out, "failed": 0,
                  "elapsed": time.monotonic() - t0}
        try:
            for cmd in cmds:
                if cmd.rc != 0:
                    raise checks.CheckError(f"{cmd.argv[0]} exited {cmd.rc}; see {cmd.log}")
            checks.check_outputs(out, manifest)
            record["digests"] = checks.digests(out, spec.trace_dir)
            record["recall"] = checks.evidence_recall(
                os.path.join(out, "predictions.json"), manifest)
        except checks.CheckError as exc:
            problems.append(f"iteration {it}: {exc}")
            record["failed"] = n_claims
        if record["failed"] == 0 and mode == "trace":
            import tracing

            spans = []
            for cmd in cmds:
                with open(cmd.report + ".spans.json", encoding="utf-8") as fh:
                    spans.append(json.load(fh))
            record["layers"] = tracing.layer_metrics(
                spans, [c.wall for c in cmds], own_bytes)
        iterations.append(record)
        if mode == "plain" and cmds[0].setup is not None and not traced:
            setups.append(cmds[0].setup)
        shutil.rmtree(os.path.join(work, f"cache-it{it}"), ignore_errors=True)
        os.sync()

        modes = {r["mode"] for r in iterations}
        enough = modes == ({"plain", "trace"} if traced else {"plain"})
        mean_iter = statistics.mean(r["elapsed"] for r in iterations)
        if enough and time.monotonic() + mean_iter > start + seconds:
            break

    digest_sets = {json.dumps(r.get("digests"), sort_keys=True) for r in iterations}
    if len(digest_sets) != 1:
        problems.append("outputs differ between iterations of the same inputs")
    ok = [r for r in iterations if r["failed"] == 0]

    def rate(records):
        return [n_claims / sum(c.wall for c in r["cmds"]) for r in records]

    metrics = {}
    plain = [r for r in ok if r["mode"] == "plain"]
    if traced:
        traced_ok = [r for r in ok if r["mode"] == "trace"]
        names = traced_ok[0]["layers"] if traced_ok else {}
        for name in names:
            metrics[name] = _median([r["layers"][name] for r in traced_ok])
        metrics["trace.claims_per_s"] = _median(rate(traced_ok))
        metrics["trace.untraced_claims_per_s"] = _median(rate(plain))
        metrics["trace.overhead_ratio"] = (
            metrics["trace.untraced_claims_per_s"] / metrics["trace.claims_per_s"]
            if metrics["trace.claims_per_s"] else 0.0
        )
    else:
        metrics["claims_per_s"] = _median(rate(plain))
        metrics["setup_s"] = _median(setups)
        metrics["peak_rss_mb"] = _median([max(c.rss_mb for c in r["cmds"]) for r in plain])
        metrics["evidence_recall"] = plain[0]["recall"] if plain else 0.0

    attempted = n_claims * len(iterations)
    failed = sum(r["failed"] for r in iterations)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "iterations": len(iterations),
        "iteration_claims_per_s": [round(r, 4) for r in rate(ok)],
        "claims_per_iteration": n_claims,
        "setup_samples": len(setups),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": problems,
        "digests": iterations[0].get("digests", {}),
        "metrics": metrics,
    }


def _units(traced: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result as one JSON line to this file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "claimcheck", "cli.py")):
        print(f"error: no claimcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Exception:
        traceback.print_exc()
        print(f"error: benchmark aborted; work directory kept at {work}", file=sys.stderr)
        return 1
    if not result["problems"]:
        shutil.rmtree(work, ignore_errors=True)

    units = _units(bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['iterations']} iterations of {result['claims_per_iteration']} claims, "
          f"{result['setup_samples']} set-up samples")
    for name, value in result["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {units.get(name, '')}")
    print(f"  {'failed_ratio':32s} {result['failed_ratio']:14.6g} ratio "
          f"({result['failed']}/{result['attempted']} claims)")
    for name, digest in result["digests"].items():
        print(f"  sha256 {name:24s} {digest}")
    if args.trace and not result["problems"]:
        for text, holds in SANITY[args.workload]:
            print(f"  baseline sanity: {text}: {'yes' if holds(result['metrics']) else 'NO'}")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result, sort_keys=True) + "\n")

    correct = not result["problems"]
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items() if name in units
    }
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
