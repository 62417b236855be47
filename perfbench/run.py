"""Benchmark for ``icsel fit`` and ``icsel simulate``.

    python3 perfbench/run.py --workload fit-wide --seed 1 --seconds 30 --trace 0

Workloads (README.md says why each was chosen):
  fit-wide   icsel fit --family lasso on n=300, p=600 SNP replicates, a new one each round
  fit-tall   icsel fit --family scad --truncation on n=20000, p=100 with delayed entry
  campaign   icsel simulate --preset t2-small --p 100 --replicates 6, four families, two workers

With ``--trace 0`` rounds of the command run, each in a fresh interpreter,
until ``--seconds`` have passed, and the run reports set-up time, wall time,
CPU time and peak RSS. With ``--trace 1`` the first input runs once untraced
and once with every layer wrapped (spans.py), and the run reports the layer
metrics. Outputs are checked on every run. The last line of standard output
is one JSON object.
"""

import os

# one BLAS/OpenMP thread here and, through the environment, in every measured
# process: fits are sequential, and the campaign's workers would otherwise
# oversubscribe the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD = HERE / "child.py"

RUN_DEADLINE_S = 165.0  # a run must end within 180 s
MIN_SETUP_SAMPLES = 7
CAMPAIGN_FAMILIES = ["lasso", "adaptive_lasso", "scad", "mcp"]
# lasso's mean L2 error must exceed every other family's by this factor;
# criterion 4 asks 2x over 30 t1-small replicates, and six t2-small
# replicates at p=100 gave ratios from 1.25 to 2.5 over 30 seeds
LASSO_MARGIN = 1.1
# fit-wide selection bands. Criterion 3 bounds mcp's 30-replicate means at
# fp <= 1 and fn <= 0.5 (n=400, p=800); a run's lasso mean over five or more
# n=300 replicates may be three times that (40 replicates gave fp 0.9, fn
# 0.6). One fit alone must still find two of the six signals and keep false
# positives under 5% of the nulls.
MEAN_FP, MEAN_FN, MIN_FITS_FOR_MEANS = 3.0, 1.5, 5
MAX_FP, MAX_FN = 30, 4

WORKLOADS = {
    # pool: distinct inputs cycled through by the rounds
    "fit-wide": dict(family="lasso", pool=64),
    "fit-tall": dict(family="scad", pool=2),
    "campaign": dict(preset="t2-small", p=100, replicates=6, pool=1),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class Run:
    """One benchmark run: its inputs, its scratch directory and its counters."""

    def __init__(self, workload: str, seed: int):
        self.name = workload
        self.cfg = WORKLOADS[workload]
        self.is_campaign = workload == "campaign"
        self.truncation = not self.is_campaign and inputs.FIT_SHAPES[workload]["truncation"]
        self.seed = seed
        self.started = time.monotonic()
        self.dir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items() if k != "ICSEL_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.workers = min(2, os.cpu_count() or 1)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # operations that failed
        self.problems: list[str] = []  # checks that failed
        self.setup_samples: list[float] = []
        self.import_samples: list[float] = []
        self.selections: list[tuple[int, int]] = []
        self._inputs: dict[int, tuple] = {}

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def input(self, k: int):
        """(csv path, parsed columns) of fit input k."""
        if k not in self._inputs:
            path = self.dir / f"input{k}.csv"
            inputs.write_fit_input(path, self.name, self.seed, k)
            self._inputs[k] = (path, checks.read_input(path))
        return self._inputs[k]

    def command(self, k: int, out: Path, workers: int) -> list[str]:
        cfg = self.cfg
        if self.is_campaign:
            return [
                "simulate", "--preset", cfg["preset"], "--p", str(cfg["p"]),
                "--replicates", str(cfg["replicates"]), "--seed", str(self.seed),
                "--fit", ",".join(f.replace("_", "-") for f in CAMPAIGN_FAMILIES),
                "--threads", str(workers), "--output-dir", str(out),
            ]
        args = ["fit", "--input", str(self.input(k)[0]), "--family", cfg["family"]]
        if self.truncation:
            args.append("--truncation")
        return args + ["--output-model", str(out / "model.json"), "--output-path", str(out / "path.csv")]

    # -- running the program ------------------------------------------------

    def spawn(self, args: list[str]) -> dict | None:
        """Run child.py in a fresh interpreter; its report, or None if the command failed."""
        env = dict(self.env, PERFBENCH_SPAWNED=repr(time.monotonic()))
        proc = subprocess.Popen(
            [sys.executable, str(CHILD)] + args, env=env, cwd=str(self.dir),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(5.0, self.remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.errors.append(f"timed out: {' '.join(args[:2])}")
            return None
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"exit {proc.returncode}: {err.strip()[-300:]}")
            return None
        report = json.loads(lines[-1])
        self.setup_samples.append(report["setup_s"])
        self.import_samples.append(report["import_s"])
        if report.get("rc", 0) != 0:
            self.errors.append(f"icsel exit {report['rc']}: {err.strip()[-300:]}")
            return None
        return report

    def run_command(self, k: int, out: Path, workers: int, trace_to: Path | None = None):
        """One attempted operation: the command on input k, writing to ``out``."""
        out.mkdir(parents=True, exist_ok=True)
        self.attempted += 1
        prefix = ["--trace-to", str(trace_to)] if trace_to else []
        report = self.spawn(prefix + self.command(k, out, workers))
        if report is None:
            self.failed += 1
        return report

    def top_up_setup_samples(self) -> None:
        while len(self.setup_samples) < MIN_SETUP_SAMPLES and self.remaining() > 10:
            self.spawn(["--import-only"])

    # -- checks -------------------------------------------------------------

    def check(self, k: int, out: Path) -> None:
        if self.is_campaign:
            found = checks.check_campaign(out, CAMPAIGN_FAMILIES, LASSO_MARGIN)
        else:
            found, selected = checks.check_fit(
                self.input(k)[1], out / "model.json", out / "path.csv", self.cfg["family"], self.truncation
            )
            fp, fn = checks.selection_errors(selected)
            if self.name == "fit-tall" and fn:
                found.append(f"missed {fn} of the six true signals")
            if self.name == "fit-wide":
                self.selections.append((fp, fn))
                if fp > MAX_FP or fn > MAX_FN:
                    found.append(f"selection fp={fp} fn={fn} outside fp<={MAX_FP}, fn<={MAX_FN}")
        self.problems += [f"input {k}: {p}" for p in found]

    def check_selection_means(self) -> None:
        if len(self.selections) >= MIN_FITS_FOR_MEANS:
            fp, fn = (statistics.mean(v) for v in zip(*self.selections))
            if fp > MEAN_FP or fn > MEAN_FN:
                self.problems.append(
                    f"mean selection fp={fp:.2f} fn={fn:.2f} outside fp<={MEAN_FP}, fn<={MEAN_FN}"
                )

    def outputs(self, out: Path) -> dict[str, bytes]:
        if self.is_campaign:
            return checks.campaign_files(out)
        return {name: (out / name).read_bytes() for name in ("model.json", "path.csv")}

    def same_outputs(self, expected: dict[str, bytes], out: Path, what: str) -> None:
        again = self.outputs(out)
        differ = sorted(n for n in expected if expected[n] != again.get(n))
        if differ:
            self.problems.append(f"{what}: {', '.join(differ)} not byte-identical")

    # -- the two kinds of run -----------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Rounds of the command until ``seconds`` have passed."""
        pool = self.cfg["pool"]
        first: dict[int, dict[str, bytes]] = {}
        reports = []
        loop_start = time.monotonic()
        r = 0
        while (not reports or time.monotonic() - loop_start < seconds) and self.remaining() > 30:
            k = r % pool
            out = self.dir / f"round{r}"
            report = self.run_command(k, out, self.workers)
            if report is not None:
                reports.append(report)
                print(f"round {r} input {k}: wall_s {report['wall_s']:.4f} "
                      f"cpu_s {report['cpu_s']:.4f} setup_s {report['setup_s']:.4f}")
                if k in first:
                    self.same_outputs(first[k], out, f"rerun of input {k}")
                else:
                    self.check(k, out)
                    first[k] = self.outputs(out)
            shutil.rmtree(out, ignore_errors=True)
            r += 1
        if 0 in first and r <= pool:
            # no input ran twice: run the first one again to check determinism
            out = self.dir / "rerun"
            if self.run_command(0, out, self.workers) is not None:
                self.same_outputs(first[0], out, "rerun of input 0")
        self.check_selection_means()
        self.top_up_setup_samples()
        if not reports:
            return {}
        # rounds on distinct inputs average over a sample of replicates (the
        # mean); rounds repeating inputs filter machine noise (the median)
        average = statistics.mean if r <= pool else statistics.median
        metrics = {"setup_s": statistics.median(self.setup_samples)}
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = average(rep[key] for rep in reports)
        return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}

    def traced(self) -> dict:
        """Input 0 untraced, then traced with one worker, each in a fresh interpreter.

        The campaign also runs untraced with one worker, so that the tracing
        overhead compares like with like and the one-worker wall time gives
        the parallel efficiency of the two-worker run.
        """
        untraced = self.run_command(0, self.dir / "untraced", self.workers)
        if untraced is None:
            return {}
        self.check(0, self.dir / "untraced")
        expected = self.outputs(self.dir / "untraced")
        one_worker = untraced
        if self.is_campaign:
            one_worker = self.run_command(0, self.dir / "untraced1", workers=1)
            if one_worker is None:
                return {}
            self.same_outputs(expected, self.dir / "untraced1",
                              f"1-worker run vs {self.workers}-worker run")
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        trace_path = OUT / "traces" / f"{self.name}-seed{self.seed}.json"
        traced = self.run_command(0, self.dir / "traced", workers=1, trace_to=trace_path)
        if traced is None:
            return {}
        self.same_outputs(expected, self.dir / "traced",
                          f"traced 1-worker run vs untraced {self.workers}-worker run")
        self.top_up_setup_samples()
        measured = {
            "cli.import_s": statistics.median(self.import_samples),
            "cli.output_bytes": sum(f.stat().st_size for f in (self.dir / "traced").iterdir()),
            "trace.overhead_s": traced["wall_s"] - one_worker["wall_s"],
            "campaign.parallel_efficiency": (
                one_worker["wall_s"] / (self.workers * untraced["wall_s"]) if self.is_campaign else 0.0
            ),
        }
        return layer_metrics(json.loads(trace_path.read_text()), measured)


# per-layer metric -> (unit, span it is read from; None when measured outside the trace)
PER_LAYER = {
    "cli.import_s": ("s", None),
    "cli.parse_s": ("s", "cli.parse"),
    "cli.write_s": ("s", "cli.write"),
    "cli.output_bytes": ("B", None),
    "data.validate_s": ("s", "data.validate"),
    "data.standardize_s": ("s", "data.standardize"),
    "support.build_s": ("s", "support.build"),
    "support.cells": ("count", "support.build"),
    "em.workspace_s": ("s", "em.workspace"),
    "em.baseline_fit_s": ("s", "em.baseline_fit"),
    "em.estep_s": ("s", "em.estep"),
    "em.estep_calls": ("count", "em.estep"),
    "em.surrogate_s": ("s", "em.surrogate"),
    "em.mstep_s": ("s", "em.mstep"),
    "em.cd_pass_s": ("s", "em.cd_pass"),
    "em.cd_pass_calls": ("count", "em.cd_pass"),
    "em.cd_coords_moved": ("count", "em.cd_pass"),
    "em.objective_s": ("s", "em.objective"),
    "em.iterations": ("count", "path.run"),
    "penalties.solve_s": ("s", "penalties.solve"),
    "penalties.solve_calls": ("count", "penalties.solve"),
    "penalties.value_s": ("s", "penalties.value"),
    "penalties.value_calls": ("count", "penalties.value"),
    "likelihood.loglik_s": ("s", "likelihood.loglik"),
    "likelihood.loglik_calls": ("count", "likelihood.loglik"),
    "path.null_linearization_s": ("s", "path.null_linearization"),
    "path.run_s": ("s", "path.run"),
    "path.paths": ("count", "path.run"),
    "simulate.replicate_s": ("s", "simulate.replicate"),
    "metrics.score_s": ("s", "metrics.score"),
    "campaign.replicate_s": ("s", "campaign.replicate"),
    "campaign.parallel_efficiency": ("ratio", None),
    "trace.overhead_s": ("s", None),
}
SELF_TIME = {"em.cd_pass_s", "em.objective_s", "path.run_s"}
FROM_COUNTS = {"em.cd_coords_moved", "em.iterations", "path.paths"}


def layer_metrics(trace: dict, measured: dict) -> dict:
    """Per-layer metrics from a trace file plus those measured outside it."""
    totals, counts = trace["totals"], trace["counts"]
    values = dict(measured)
    values["support.cells"] = counts.get("support.cells_total", 0) / max(counts.get("support.builds", 0), 1)
    for name, (_, span) in PER_LAYER.items():
        if name in values:
            continue
        if name in FROM_COUNTS:
            values[name] = counts.get(name, 0)
        else:
            field = "calls" if name.endswith("_calls") else "self_s" if name in SELF_TIME else "inclusive_s"
            values[name] = totals.get(span, {}).get(field, 0.0)
    absent = sorted(n for n, (_, span) in PER_LAYER.items() if span in trace["absent"])
    if absent:
        print("absent, reported as 0: " + ", ".join(absent))
    return {n: {"value": float(values[n]), "unit": unit} for n, (unit, _) in PER_LAYER.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "icsel" / "cli.py").is_file():
        print(f"no icsel sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    try:
        # warm-up: compiles bytecode, fills the file cache and shows that the
        # program imports, before anything is measured
        if run.spawn(["--import-only"]) is None:
            print("\n".join(run.errors), file=sys.stderr)
            return 2
        run.setup_samples.clear()
        run.import_samples.clear()
        metrics = run.traced() if args.trace else run.measure(args.seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for error in run.errors:
        print(f"failed: {error}")
    for problem in run.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not run.problems and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
