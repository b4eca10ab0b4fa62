"""The benchmark's workloads: one job per workload, each a fixed sequence of
``varbound`` CLI commands on generated scenario files.

Every model is the ring-spillover ladder of the ROADMAP unless stated: unit i
neighbours units i - 1 and i + 1 (mod n), Bernoulli(0.5) assignment, the
Horvitz-Thompson estimator, contrast (direct, indirect).

Inputs are drawn here, without calling the program, so that a change to the
program cannot change what it is given. Job j of a run draws its data (outcome
vectors, the realized assignment, covariates) from ``(workload seed, j)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("exact-build", "mc-solve", "estimate")

COMPOSITE = {"terms": [
    {"weight": 1.0, "term": "schatten", "p": "inf"},
    {"weight": 0.01, "term": "frobenius-squared"},
]}
FROBENIUS = {"terms": [{"weight": 1.0, "term": "frobenius-squared"}]}

# Problem sizes of the measured jobs, and a tiny variant (n <= 4) that the
# warm-up and the harness self-test run through the same code.
FULL = {
    "exact-build": {"ht_n": 16, "lin_n": 16, "lin_m": 8, "covariates": 2},
    "mc-solve": {"composite_n": 40, "frobenius_n": 80, "count": 20_000},
    "estimate": {"exact_n": 12, "mc_n": 20, "count": 20_000},
}
TINY = {
    "exact-build": {"ht_n": 4, "lin_n": 4, "lin_m": 2, "covariates": 1},
    "mc-solve": {"composite_n": 4, "frobenius_n": 3, "count": 2_000},
    "estimate": {"exact_n": 3, "mc_n": 4, "count": 2_000},
}


@dataclass
class Step:
    """One CLI command of a job and what its outputs must satisfy."""

    label: str
    argv: list
    kind: str  # "bound", "admissible" or "estimate": selects the output check
    out: Path
    n: int
    objective: dict | None = None
    expect_theta: bool = False


@dataclass
class Job:
    index: int
    seeds: dict
    steps: list = field(default_factory=list)


def ring(n):
    return [[(i - 1) % n, (i + 1) % n] for i in range(n)]


def ring_scenario(n, mode, objective):
    return {
        "n": n,
        "design": {"kind": "bernoulli", "p": 0.5},
        "exposure": {"rule": "spillover", "adjacency": ring(n)},
        "estimator": {"kind": "horvitz-thompson"},
        "mode": mode,
        "objective": objective,
    }


def ring_realized(n, rng, theta):
    """A Bernoulli(0.5) assignment and the outcomes it reveals under the ring
    rule: a treated unit i reveals coordinate i, an untreated unit with a
    treated neighbour reveals i + n (outcome keys are 1-based on disk)."""
    z = (rng.random(n) < 0.5).astype(int)
    nbr = np.roll(z, 1) | np.roll(z, -1)
    revealed = [i for i in range(n) if z[i]] + [i + n for i in range(n) if not z[i] and nbr[i]]
    return {"z": z.tolist(), "outcomes": {str(k + 1): float(theta[k]) for k in sorted(revealed)}}


def job_seed(seed, j):
    """Monte Carlo seed of job j, derived from (workload seed, j)."""
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _exact_build(j, seed, sizes, work):
    rng = np.random.default_rng([seed, j])
    n, ln = sizes["ht_n"], sizes["lin_n"]
    ht = _write(work / "ht.json", ring_scenario(n, {"kind": "exact"}, FROBENIUS))
    X = rng.normal(size=(ln, sizes["covariates"]))
    lin = _write(work / "lin.json", {
        "n": ln,
        "design": {"kind": "complete-randomization", "m": sizes["lin_m"]},
        "exposure": {"rule": "identity"},
        "estimator": {"kind": "lin", "covariates": X.tolist()},
        "mode": {"kind": "exact"},
        "objective": FROBENIUS,
    })
    job = Job(j, {"data": [seed, j]})
    job.steps = [
        Step(f"bound-ht{n}", ["bound", "-c", ht, "-o", str(work / "ht")], "bound",
             work / "ht", n, FROBENIUS),
        Step(f"bound-lin{ln}", ["bound", "-c", lin, "-o", str(work / "lin")], "bound",
             work / "lin", ln, FROBENIUS),
    ]
    return job


def _mc_solve(j, seed, sizes, work):
    s = job_seed(seed, j)
    n1, n2, count = sizes["composite_n"], sizes["frobenius_n"], sizes["count"]
    mode = {"kind": "mc", "count": count, "seed": s}
    comp = _write(work / "composite.json", ring_scenario(n1, mode, COMPOSITE))
    frob = _write(work / "frobenius.json", ring_scenario(n2, mode, FROBENIUS))
    seed_args = ["--seed", str(s)]
    job = Job(j, {"mc": s})
    job.steps = [
        Step(f"bound-composite{n1}", ["bound", "-c", comp, "-o", str(work / "comp"), *seed_args],
             "bound", work / "comp", n1, COMPOSITE),
        Step(f"admissible{n1}", ["admissible", "-c", comp, "--slack", str(work / "comp" / "S.csv"),
                                 "-o", str(work / "adm"), *seed_args],
             "admissible", work / "adm", n1),
        Step(f"bound-frobenius{n2}", ["bound", "-c", frob, "-o", str(work / "frob"), *seed_args],
             "bound", work / "frob", n2, FROBENIUS),
    ]
    return job


def _estimate(j, seed, sizes, work):
    # No --seed and no scenario seed: every job uses the program's default
    # Monte Carlo seed (0) for the n = 20 build and for both Cov(R) fallbacks.
    # The power iteration behind Cov(R) at n = 20 takes from about 1,100 to
    # 20,000 matvecs depending on the draws, so draws that change with the job
    # would time that spread instead of the code. The workload seed draws the
    # outcome data, which does not change the amount of work.
    rng = np.random.default_rng([seed, j])
    n1, n2, count = sizes["exact_n"], sizes["mc_n"], sizes["count"]
    theta = rng.normal(size=2 * n1)
    exact = ring_scenario(n1, {"kind": "exact"}, FROBENIUS)
    exact.update(theta=theta.tolist(), realized=ring_realized(n1, rng, theta))
    mc = ring_scenario(n2, {"kind": "mc", "count": count}, FROBENIUS)
    mc["realized"] = ring_realized(n2, rng, rng.normal(size=2 * n2))
    e1 = _write(work / "estimate_exact.json", exact)
    e2 = _write(work / "estimate_mc.json", mc)
    job = Job(j, {"mc": 0, "data": [seed, j]})
    job.steps = [
        Step(f"estimate-exact{n1}", ["estimate", "-c", e1, "-o", str(work / "est1")],
             "estimate", work / "est1", n1, expect_theta=True),
        Step(f"estimate-mc{n2}", ["estimate", "-c", e2, "-o", str(work / "est2")],
             "estimate", work / "est2", n2),
    ]
    return job


_BUILDERS = {"exact-build": _exact_build, "mc-solve": _mc_solve, "estimate": _estimate}


def make_job(workload, j, seed, work, sizes=FULL):
    """Write job j's scenario files under ``work`` and return its steps."""
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](j, seed, sizes[workload], work)
