#!/usr/bin/env python3
"""Sweep the regularization weight of the worst-case composite objective.

For a grid of gamma values, solves

    minimize  opnorm(A + S) + gamma * frobenius(A + S)^2

over valid slack matrices and prints how the worst-case size, the quadratic
size, and the distance to the previous solution evolve. Small gamma homes in
on the slack that minimizes the quadratic norm among worst-case minimizers.

Usage: python scripts/gamma_sweep.py [n]
"""

import math
import sys

import numpy as np

from varbound import (
    Design,
    EstimatorSpec,
    ExposureModel,
    Objective,
    SolverConfig,
    build_variance_problem,
    linalg,
    solve_optvb,
)
from varbound.solver import FrobeniusSquaredTerm, SchattenTerm


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    design = Design.cluster([[2 * i, 2 * i + 1] for i in range(n // 2)], max(1, n // 4))
    model = ExposureModel.identity(n)
    problem, _ = build_variance_problem(design, model, EstimatorSpec(kind="horvitz-thompson"))
    config = SolverConfig(eps_rel=1e-9, max_iterations=400_000)

    print(f"n = {n}, design = {design.kind}, omega size = {len(problem.omega)}")
    print(f"{'gamma':>10s} {'opnorm(B)':>12s} {'fro(B)^2':>12s} {'step':>12s}")
    previous = None
    for gamma in (1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001):
        objective = Objective.composite(
            [(1.0, SchattenTerm(p=math.inf)), (gamma, FrobeniusSquaredTerm())]
        )
        res = solve_optvb(problem, objective, config)
        opnorm = linalg.schatten_norm(res.B_star, math.inf)
        fro2 = linalg.schatten_norm(res.B_star, 2) ** 2
        step = float("nan") if previous is None else np.linalg.norm(res.S_star - previous)
        print(f"{gamma:10.3g} {opnorm:12.8f} {fro2:12.6f} {step:12.3e}")
        previous = res.S_star


if __name__ == "__main__":
    main()
