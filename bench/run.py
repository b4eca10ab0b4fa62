#!/usr/bin/env python3
"""End-to-end benchmark of the ``varbound`` CLI.

Run one workload (the last line of standard output is the result as JSON)::

    python3 bench/run.py --workload exact-build --seed 1 --seconds 30 --trace 0

Run every workload, untraced and traced, and print one table::

    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload is one process with one client in a closed loop: it runs jobs
back to back through ``varbound.cli.main(argv)`` in this process, with the
CLI's defaults (``--threads 1``, the machine's BLAS thread count), until the
measured job time reaches ``--seconds``. ``--trace 1`` runs the same jobs with
the wrappers of ``layers.py`` installed and reports per-layer numbers instead.
Outputs and run records go to ``.bench_out/`` at the repository root.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# setup_s is the median set-up time of this many fresh processes, this one included
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60


def import_program():
    """Import the CLI from this checkout's ``src``; None when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        from varbound import cli
    except ImportError as exc:
        print(f"cannot import varbound from {SRC}: {exc}", file=sys.stderr)
        return None
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"varbound was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return None
    return cli


def run_cli(argv):
    """One CLI command in this process: (exit code, stdout, stderr)."""
    from varbound import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash fails the job; the run goes on
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


# -- provenance ---------------------------------------------------------------------


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "varbound").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded (None if not found)."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(workload, seed, seconds, trace):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "workload_seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# -- one workload -------------------------------------------------------------------


_SUMMARY_KEYS = ("iterations", "objective_value", "min_eig_slack", "converged",
                 "solver_iterations", "alpha", "bound_estimate", "opnorm_cov_R",
                 "empirical_mse_at_theta")


def _step_summary(step):
    try:
        metrics = json.loads((step.out / "report.json").read_text())["metrics"]
    except (OSError, ValueError, KeyError):
        return {}
    return {k: metrics[k] for k in _SUMMARY_KEYS if k in metrics}


def run_job(job, tracer=None):
    """Run a job's steps back to back; returns (wall seconds, per-step results)."""
    results = []
    root = tracer.open("job", j=job.index) if tracer else None
    for step in job.steps:
        frame = tracer.open(f"cli.{step.argv[0]}", step=step.label) if tracer else None
        t0 = time.perf_counter()
        try:
            code, out, err = run_cli(step.argv)
        finally:
            dt = time.perf_counter() - t0
            if tracer:
                tracer.close(frame)
        results.append((step, code, out, err, dt))
    if tracer:
        tracer.close(root)
    return sum(r[4] for r in results), results, root


def check_job(results):
    problems = []
    for step, code, out, err, _ in results:
        found = checks.check_step(step, code, out)
        if err.strip() and found:
            found.append(err.strip().splitlines()[-1])
        problems += [f"{step.label}: {p}" for p in found]
    return problems


def warm_up(workload, seed, work):
    """One tiny job of this workload: first-call costs land in set-up."""
    job = workloads.make_job(workload, 0, seed, work / "warmup", workloads.TINY)
    _, results, _ = run_job(job)
    return check_job(results)


def _median_setup(workload, seed, own):
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def run_workload(workload, seed, seconds, trace, sizes=workloads.FULL,
                 setup_samples=True, started=None, setup_only=False):
    """Set up, run jobs for ``seconds`` of measured time, check every output.

    Returns (result, record): the result is the JSON object the benchmark
    prints, the record adds provenance, per-job details and trace analysis.
    """
    started = time.perf_counter() if started is None else started
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_problems = warm_up(workload, seed, work)
        own_setup = time.perf_counter() - started
        if setup_only:
            return {"setup_s": own_setup}, None
        record = {"provenance": provenance(workload, seed, seconds, trace)}
        if setup_samples and not trace:
            setup_s, record["setup_samples_s"] = _median_setup(workload, seed, own_setup)
        else:
            setup_s = own_setup
        tracer = layers.Tracer().install() if trace else None
        jobs, times, roots = [], [], []
        try:
            while True:
                j = len(jobs)
                job_dir = work / "job"
                shutil.rmtree(job_dir, ignore_errors=True)
                job = workloads.make_job(workload, j, seed, job_dir, sizes)
                wall, results, root = run_job(job, tracer)
                problems = check_job(results)
                times.append(wall)
                roots.append(root)
                jobs.append({
                    "j": j, "seeds": job.seeds, "seconds": wall, "problems": problems,
                    "steps": [{"label": s.label, "argv": s.argv, "exit": code, "seconds": dt,
                               **_step_summary(s)} for s, code, _, _, dt in results],
                })
                # start another job only if at least half of a typical one fits
                if sum(times) + statistics.median(times) / 2 > seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()
        once_problems = checks.once_per_run(run_cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for job in jobs if job["problems"])
    if trace:
        grouped = tracer.jobs()
        per_job = [layers.job_metrics(tracer, grouped[root[0]], root[0]) for root in roots]
        metrics = {name: {"value": statistics.median(m[name] for m in per_job), "unit": unit}
                   for name, unit in layers.PER_LAYER.items()}
        record["eig_by_dim"] = layers.eig_by_dim(tracer)
        record["baseline"] = layers.baseline_points(tracer)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "job_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    result = {
        "correct": failed == 0 and not setup_problems and not once_problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }
    record.update(result=result, jobs=jobs, setup_problems=setup_problems,
                  once_per_run_problems=once_problems, failed_ratio=failed / len(jobs))
    if trace:
        record["spans_file"] = str(_write_spans(tracer, workload))
    return result, record


def _write_spans(tracer, workload):
    names = sorted({s[2] for s in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    doc = {
        "columns": ["id", "parent", "name", "start", "end", "self_s", "attrs"],
        "names": names,
        "spans": [[s[0], s[1], index[s[2]], s[3], s[4], s[5], s[6]] for s in tracer.spans],
        "folded": [[job, name, *agg] for (job, name), agg in tracer.folded.items()],
    }
    path = OUT / f"{workload}-spans.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)
    return path


# -- reporting ----------------------------------------------------------------------


def describe(record):
    """Human-readable lines for one run."""
    r = record["result"]
    p = record["provenance"]
    lines = [f"{p['workload']} seed={p['workload_seed']} trace={p['trace']}: "
             f"{r['attempted']} jobs, {r['failed']} failed, correct={r['correct']} "
             f"(python {p['python']}, numpy {p['numpy']}, {p['blas']}, "
             f"BLAS threads {p['blas_threads']}, nproc {p['nproc']})"]
    for problem in record["setup_problems"] + record["once_per_run_problems"]:
        lines.append(f"  FAIL {problem}")
    for job in record["jobs"]:
        steps = ", ".join(
            f"{s['label']} {s['seconds']:.3f}s"
            + (f" it={s['iterations']}" if "iterations" in s else "")
            + (f" it={s['solver_iterations']}" if "solver_iterations" in s else "")
            for s in job["steps"])
        lines.append(f"  job {job['j']} seeds={job['seeds']} {job['seconds']:.3f}s: {steps}")
        lines += [f"    FAIL {problem}" for problem in job["problems"]]
    for name, m in r["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    if p["trace"]:
        split = {k: r["metrics"][f"{k}.self_s"]["value"] for k in layers.LAYERS}
        total = sum(split.values()) or 1.0
        lines.append("  self time by layer (median job): " + ", ".join(
            f"{k} {v:.3f}s ({100 * v / total:.0f}%)"
            for k, v in sorted(split.items(), key=lambda kv: -kv[1])))
        for dim, e in record["eig_by_dim"].items():
            lines.append(f"  eig dim {dim}: {e['calls']} calls, median {e['median_ms']:.3f} ms, "
                         f"p90 {e['p90_ms']:.3f} ms, max {e['max_ms']:.3f} ms, "
                         f"total {e['total_s']:.3f} s")
        for label, b in record["baseline"].items():
            extra = ", ".join(f"{k} {v:.6g}" for k, v in b.items() if k not in ("seconds",))
            lines.append(f"  baseline: {label}: {b['seconds']:.3f} s ({extra})")
    return lines


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    rows, ok = [], True
    for workload in workloads.WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                return 1
            results[trace] = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and results[trace]["correct"]
        rows.append((workload, results))
    print(f"{'workload':<12} {'setup_s':>10} {'job_s (jobs)':>16} {'peak_rss_mb':>12} "
          f"{'failed_ratio':>13} {'traced job_s':>13}  overhead")
    for workload, res in rows:
        m, t = res[0]["metrics"], res[1]["metrics"]
        untraced, traced = m["job_s"]["value"], t["trace.job_s"]["value"]
        print(f"{workload:<12} {m['setup_s']['value']:>8.3f} s "
              f"{untraced:>9.3f} s ({res[0]['attempted']:>2}) "
              f"{m['peak_rss_mb']['value']:>9.1f} MB "
              f"{res[0]['failed'] / res[0]['attempted']:>13.3f} "
              f"{traced:>11.3f} s  {traced / untraced:.3f} "
              f"({traced:.3f} s traced / {untraced:.3f} s untraced)")
    for workload, _ in rows:
        record = json.loads((OUT / f"{workload}-trace1.json").read_text())
        for line in describe(record)[1:]:
            if line.startswith("  self time") or line.startswith("  baseline"):
                print(f"{workload}:{line}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure one set-up and exit (used for the setup_s median)")
    args = parser.parse_args(argv)
    if import_program() is None:
        return 2
    if args.workload == "all":
        return run_all(args)
    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                  started=_STARTED, setup_only=args.setup_only)
    if record is not None:
        path = OUT / f"{args.workload}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, default=str) + "\n")
        print("\n".join(describe(record)), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
