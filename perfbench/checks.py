"""Output checks.  Each returns (attempted, failures), one operation per row,
table, task or criterion; a command that crashed or left no output fails
every operation it was asked for."""

from __future__ import annotations

import csv
import math
import os

import numpy as np

# criterion 10's bands; regions I and VII only need a negative rate
FIT_BANDS = {"III": (-0.77, -0.57), "IV": (-0.6, -0.4), "V": (-0.77, -0.57),
             "I": (-math.inf, 0.0), "VII": (-math.inf, 0.0)}
N_CRITERIA = 11
PHI_MAX_N = 64  # the CLI's default --phi-max-n
# 1 - sum |c_k|^2 over K+1 terms carries rounding of order K * 2^-53
_PARSEVAL_ROUNDING = 1e-12


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text) -> float:
    """A CSV cell as a float; blank, nan and unparseable cells give nan."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _key(lam, n):
    return (float(lam), int(n))


def check_growth(cmd, workdir):
    """Rows fail unless L <= phi_D <= sqrt_en with phi_converged true; rows
    above PHI_MAX_N carry no phi_D and only need L <= sqrt_en."""
    expected = [_key(lam, n) for lam in cmd.lambdas for n in cmd.ns]
    rows = {_key(r["lambda"], r["n"]): r for r in _read_rows(os.path.join(workdir, cmd.out))}
    failures = []
    for lam, n in expected:
        r = rows.get((lam, n))
        if r is None:
            failures.append(f"growth lambda={lam} n={n}: row missing")
            continue
        L, phi, upper = _num(r["L"]), _num(r["phi_D"]), _num(r["sqrt_en"])
        if n <= PHI_MAX_N:
            ok = r["phi_converged"] == "true" and L <= phi <= upper
        else:
            ok = L <= upper
        if not ok:
            failures.append(f"growth lambda={lam} n={n}: L={r['L']} phi_D={r['phi_D']} "
                            f"converged={r['phi_converged']} sqrt_en={r['sqrt_en']}")
    return len(expected), failures


def check_bounds(cmd, workdir):
    """Rows fail when dominance_ok is not true or a value is NaN; a query
    with no rows at all fails once."""
    tasks = {(float(lam), int(n), float(z)) for lam in cmd.lambdas for n in cmd.ns
             for z in cmd.zetas}
    rows = _read_rows(os.path.join(workdir, cmd.out))
    failures = []
    seen = set()
    for r in rows:
        seen.add((float(r["lambda"]), int(r["n"]), float(r["zeta_re"])))
        values = [_num(r[c]) for c in ("value", "zeta_re", "zeta_im", "C")]
        if r["rho_star"]:
            values.append(_num(r["rho_star"]))
        if r["dominance_ok"] != "true" or any(math.isnan(v) for v in values):
            failures.append(f"bounds lambda={r['lambda']} n={r['n']} zeta={r['zeta_re']} "
                            f"rule={r['rule']}: value={r['value']} ok={r['dominance_ok']}")
    missing = tasks - seen
    failures += [f"bounds lambda={lam} n={n} zeta={z}: no rows" for lam, n, z in sorted(missing)]
    return len(rows) + len(missing), failures


def truncation_tail(lam: float, n: int, K: int) -> float:
    """sum_{k > K} |c_k|^2 for the Taylor coefficients c_k of b_lambda^n,
    from an FFT 16 times longer than the stored range."""
    size = 1 << int(math.ceil(math.log2(16 * (K + 1))))
    z = np.exp(2j * np.pi * np.arange(size) / size)
    c = np.fft.fft(((z - lam) / (1 - lam * z)) ** n) / size
    return float(np.sum(np.abs(c[K + 1: size // 2]) ** 2))


def check_coeffs(cmd, workdir):
    """One operation per (lambda, n) table: it fails when the table is short,
    or the Parseval defect is not finite or exceeds the truncation tail."""
    expected = [_key(lam, n) for lam in cmd.lambdas for n in cmd.ns]
    norms = {_key(r["lambda"], r["n"]): r
             for r in _read_rows(os.path.join(workdir, cmd.out + ".norms.csv"))}
    counts = {}
    for r in _read_rows(os.path.join(workdir, cmd.out)):
        key = _key(r["lambda"], r["n"])
        counts[key] = counts.get(key, 0) + 1
    failures = []
    for lam, n in expected:
        r = norms.get((lam, n))
        if r is None:
            failures.append(f"coeffs lambda={lam} n={n}: norms row missing")
            continue
        K = int(r["K"])
        defect = _num(r["parseval_defect"])
        tail = truncation_tail(lam, n, K)
        if counts.get((lam, n), 0) != K + 1:
            failures.append(f"coeffs lambda={lam} n={n}: {counts.get((lam, n), 0)} rows "
                            f"for K={K}")
        elif not math.isfinite(defect) or abs(defect) > tail + _PARSEVAL_ROUNDING:
            failures.append(f"coeffs lambda={lam} n={n}: parseval defect {r['parseval_defect']} "
                            f"vs tail {tail:.3e}")
    return len(expected), failures


def check_asymptotics(cmd, workdir):
    """One operation per (lambda, n) task and one per fit row.  A task fails
    when a row carries a flag or a non-finite truth_re; a fit fails when its
    slope is outside its criterion-10 band."""
    groups = {}
    for r in _read_rows(os.path.join(workdir, cmd.out)):
        key = _key(r["lambda"], r["n"])
        bad = r["flag"] != "" or not math.isfinite(_num(r["truth_re"]))
        groups[key] = groups.get(key, False) or bad
    failures = []
    expected = [_key(lam, n) for lam in cmd.lambdas for n in cmd.ns]
    for lam, n in expected:
        if groups.get((lam, n), True):
            failures.append(f"asymptotics lambda={lam} n={n}: "
                            + ("no rows" if (lam, n) not in groups else "flagged or non-finite row"))
    attempted = len(expected)
    if len(cmd.ns) >= 4:
        fits = {(float(r["lambda"]), r["region"]): _num(r["slope"])
                for r in _read_rows(os.path.join(workdir, cmd.out + ".fits.csv"))}
        for lam in cmd.lambdas:
            for region, (lo, hi) in FIT_BANDS.items():
                attempted += 1
                slope = fits.get((float(lam), region), math.nan)
                if not lo <= slope <= hi:
                    failures.append(f"asymptotics fit lambda={lam} region {region}: "
                                    f"slope {slope} outside [{lo}, {hi}]")
    return attempted, failures


def check_validate(stdout):
    """One operation per criterion; each FAIL line, or missing line, fails."""
    lines = [ln for ln in stdout.splitlines() if ln.startswith(("PASS ", "FAIL "))]
    failures = [ln for ln in lines if ln.startswith("FAIL ")]
    failures += ["validate: criterion line missing"] * (N_CRITERIA - len(lines))
    return max(N_CRITERIA, len(lines)), failures


def ops_requested(cmd) -> int:
    """Operations a command was asked for; all fail when it leaves no output."""
    if cmd.kind == "validate":
        return N_CRITERIA
    tasks = len(cmd.lambdas) * len(cmd.ns)
    if cmd.kind == "bounds":
        return tasks * len(cmd.zetas)
    if cmd.kind == "asymptotics" and len(cmd.ns) >= 4:
        return tasks + len(cmd.lambdas) * len(FIT_BANDS)
    return tasks


def check(cmd, workdir, returncode, stdout):
    """(attempted, failures) for one finished command."""
    if cmd.kind == "validate":
        if returncode not in (0, 1):
            return N_CRITERIA, [f"validate exited with {returncode}"] * N_CRITERIA
        return check_validate(stdout)
    n_ops = ops_requested(cmd)
    if returncode != 0:
        return n_ops, [f"{cmd.kind} exited with {returncode}"] * n_ops
    try:
        if cmd.kind == "growth":
            return check_growth(cmd, workdir)
        if cmd.kind == "bounds":
            return check_bounds(cmd, workdir)
        if cmd.kind == "coeffs":
            return check_coeffs(cmd, workdir)
        if cmd.kind == "asymptotics":
            return check_asymptotics(cmd, workdir)
    except (OSError, KeyError, ValueError, csv.Error) as ex:
        return n_ops, [f"{cmd.kind} output unreadable: {ex!r}"] * n_ops
    raise ValueError(f"no check for {cmd.kind!r}")
