"""The four benchmark workloads: the CLI commands one pass runs, built from a seed.

Each workload stresses a different set of layers:

* ``phi-lp``     the long-double simplex and the 60-digit jet check
                 (``simplex``, ``wiener_opt``); blaschke under 1%.
* ``asym-airy``  FFT ground truth, Airy evaluation, saddles and branch
                 tracking (``blaschke``, ``airy``, ``asymptotics``); no LP.
* ``tables``     large one-shot FFTs written whole to disk, the rho scan and
                 CSV writing (``blaschke``, ``resolvent``, ``cli``); no LP, no Airy.
* ``validate``   the acceptance suite, the only user of ``acceptance``,
                 ``modelspace``, the dense Airy sweep and the resolvent
                 interpolation norm.

Lambda values come from the seed: one within 0.02 of each of 0.35, 0.5 and
0.65, spanning [0.3, 0.7] while keeping the work, which grows like
1/alpha0 = (1+lambda)/(1-lambda), within about 2% from seed to seed.  Wider
draws would add their own spread to a machine whose speed already drifts
by 10-20% between runs.  ``phi-lp`` keeps lambda = 0.5: the simplex's pivot
count is erratic in lambda (one pass takes 4 s at 0.53 and 12 s at 0.51,
and the command dies with "iteration limit reached" at 0.45, 0.56 and
0.66), so no seed can move it without changing its time by far more than
any change to measure.  At 0.5 it still shows the known wrong rows at
n = 48 and 64.  ``validate`` has its inputs fixed by the acceptance suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PHI_LAMBDA = 0.5
LAMBDA_CENTERS = (0.35, 0.5, 0.65)
LAMBDA_JITTER = 0.02
PHI_N = (8, 16, 24, 32, 48, 64)
ASYM_N = (256, 512, 1024, 2048)
COEFF_N = (1024, 4096)
GROWTH_L_N = (256, 512, 1024, 2048, 4096, 8192)
BOUNDS_N = (64, 256, 1024)
# none of these can coincide with a lambda in [0.3, 0.7]
BOUNDS_ZETA = (0.0, -0.5, 0.9, 1.0)

NAMES = ("phi-lp", "asym-airy", "tables", "validate")


@dataclass
class Command:
    """One CLI invocation and what its output check needs to know."""

    kind: str  # subcommand name: growth, bounds, coeffs, asymptotics, validate
    argv: list
    out: str | None = None  # the --out file name, relative to the work dir
    lambdas: tuple = ()
    ns: tuple = ()
    zetas: tuple = ()

    @property
    def outputs(self) -> list:
        """Every file the command writes, relative to the work dir."""
        if self.out is None:
            return []
        if self.kind == "coeffs":
            return [self.out, self.out + ".norms.csv"]
        if self.kind == "asymptotics" and len(self.ns) >= 4:
            return [self.out, self.out + ".fits.csv"]
        return [self.out]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def seeded_lambdas(rng: random.Random) -> tuple:
    """One lambda within LAMBDA_JITTER of each center, rounded to six
    decimals so the CLI argument is the value the program uses."""
    return tuple(round(c + LAMBDA_JITTER * (2 * rng.random() - 1), 6) for c in LAMBDA_CENTERS)


def growth(lambdas, ns, out) -> Command:
    argv = ["growth", "--lambda", _csv(lambdas), "--n", _csv(ns), "--out", out,
            "--workers", "1"]
    return Command("growth", argv, out, tuple(lambdas), tuple(ns))


def asymptotics(lambdas, ns, out) -> Command:
    argv = ["asymptotics", "--lambda", _csv(lambdas), "--n", _csv(ns), "--out", out,
            "--workers", "1"]
    return Command("asymptotics", argv, out, tuple(lambdas), tuple(ns))


def coeffs(lambdas, ns, out) -> Command:
    argv = ["coeffs", "--lambda", _csv(lambdas), "--n", _csv(ns), "--out", out,
            "--workers", "1"]
    return Command("coeffs", argv, out, tuple(lambdas), tuple(ns))


def bounds(lambdas, ns, zetas, out) -> Command:
    argv = ["bounds", "--lambda", _csv(lambdas), "--n", _csv(ns), "--zeta", _csv(zetas),
            "--out", out, "--workers", "1"]
    return Command("bounds", argv, out, tuple(lambdas), tuple(ns), tuple(zetas))


def validate() -> Command:
    return Command("validate", ["validate"])


def build(name: str, seed: int) -> list:
    """The commands of one pass of workload ``name`` at ``seed``."""
    rng = random.Random(seed)
    if name == "phi-lp":
        return [growth((PHI_LAMBDA,), PHI_N, "phi.csv")]
    if name == "asym-airy":
        return [asymptotics(seeded_lambdas(rng), ASYM_N, "asym.csv")]
    if name == "tables":
        lams = seeded_lambdas(rng)
        return [coeffs(lams, COEFF_N, "coeffs.csv"),
                growth(lams, GROWTH_L_N, "growth.csv"),
                bounds(lams, BOUNDS_N, BOUNDS_ZETA, "bounds.csv")]
    if name == "validate":
        return [validate()]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
