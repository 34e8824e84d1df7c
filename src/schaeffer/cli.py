"""Command-line harness: coefficient tables, growth/bound/asymptotics sweeps,
and the acceptance suite.

Output files are deterministic: fixed column order, numbers printed with 17
significant digits, rows emitted in input order regardless of worker count;
so are the stderr notes of ``growth``.
Exit codes: 0 success, 1 validation failure, 2 usage error.

Each command imports the layers it runs, and numpy with them, inside its own
functions, so ``--help`` and a usage error found while parsing exit before
any of them loads.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import DomainError, ModeError, ResourceError
from .spectra import SpectrumSpec


def _row_template(types) -> str:
    """One %-template for a row whose cells have these types: strings as
    they are, None blank, numbers (nan and inf included) as '%.17g'."""
    cells = ("" if t is type(None) else "%s" if issubclass(t, str) else "%.17g" for t in types)
    return ",".join(cells) + "\n"


def _write_csv(path, header, rows):
    templates = {}  # cell types -> (template, whether a cell is None)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            types = tuple(map(type, row))
            if types not in templates:
                templates[types] = (_row_template(types), type(None) in types)
            template, blanks = templates[types]
            fh.write(template % (tuple(v for v in row if v is not None) if blanks else tuple(row)))


def _write_json(path, payload):
    import json

    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(opts, path, header, rows):
    """The rows as CSV, or as JSON records keyed by the header, per --format."""
    if opts.format == "csv":
        _write_csv(path, header, rows)
    else:
        _write_json(path, [dict(zip(header, r)) for r in rows])


def _parse_floats(text):
    return [float(v) for v in text.split(",") if v != ""]


def _parse_ints(text):
    return [int(v) for v in text.split(",") if v != ""]


def _parse_complexes(text):
    return [complex(v) for v in text.split(",") if v != ""]


def _parse_format(text):
    """--format's own check; argparse checks ``choices`` on the command line only."""
    if text not in ("csv", "json"):
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from 'csv', 'json')")
    return text


class _Config(dict):
    """Config-file defaults that record in ``read`` the keys the parser reads."""

    def get(self, key, default=None):
        self.read = getattr(self, "read", set()) | {key}
        return super().get(key, default)


def _load_config(path):
    values = _Config()
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _pool_map(fn, tasks, workers):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, tasks))


# ---------------------------------------------------------------------------
# subcommands


def _coeff_task(args):
    from . import blaschke

    lam, n, kmax = args
    points = [(lam, n)]
    K = kmax if kmax is not None else blaschke.support_estimate(points)
    base = blaschke.blaschke_power_coeffs(points, K)
    series = blaschke.weight_series(base)
    block = (lam, n, series.coeffs.tolist())
    return block, (lam, n, series.max_index, series.linf, 1.0 - base.l2 ** 2)


def _check_coeffs(opts):
    if opts.kmax is not None and opts.kmax < 2:
        raise DomainError(f"--k {opts.kmax} must be >= 2")
    for lam in opts.lambdas:
        for n in opts.n:
            SpectrumSpec.single(lam, n).require_interior()


def _write_coeff_csv(path, blocks):
    with open(path, "w") as fh:
        fh.write("lambda,n,k,coeff_re,coeff_im\n")
        for lam, n, re in blocks:
            # lambda and n are fixed along a block, so each block formats them
            # once into its own row template and renders all its rows in one
            # % call; '%d' prints k as _write_csv's '%.17g' does, and the
            # coefficients of a real spectrum are real, so coeff_im is 0
            m = len(re)
            cells = [None] * (2 * m)
            cells[0::2] = range(m)
            cells[1::2] = re
            template = "%.17g,%.17g," % (lam, n) + "%d,%.17g,0\n"
            fh.write((template * m) % tuple(cells))


def cmd_coeffs(opts) -> int:
    tasks = [(lam, n, opts.kmax) for lam in opts.lambdas for n in opts.n]
    results = _pool_map(_coeff_task, tasks, opts.workers)
    blocks = [res[0] for res in results]
    norms = [res[1] for res in results]
    if opts.format == "csv":
        _write_coeff_csv(opts.out, blocks)
        _write_csv(opts.out + ".norms.csv",
                   ["lambda", "n", "K", "linf_A", "parseval_defect"], norms)
    else:
        rows = [(lam, n, k, r, 0.0) for lam, n, re in blocks for k, r in enumerate(re)]
        _write_json(opts.out, {
            "coefficients": [dict(zip(("lambda", "n", "k", "re", "im"), r)) for r in rows],
            "norms": [dict(zip(("lambda", "n", "K", "linf_A", "parseval_defect"), r))
                      for r in norms],
        })
    return 0


def _growth_task(args):
    """One growth row and its stderr note (None when there is none)."""
    from . import wiener_opt
    from .simplex import SimplexError

    lam, n, phi_max_n = args
    spec = SpectrumSpec.single(lam, n)
    L = wiener_opt.phi_lower_bound(spec)
    phi = conv = note = None
    if n <= phi_max_n:
        try:
            res = wiener_opt.phi_exact_truncated(spec)
        except SimplexError as ex:  # blank phi_D, phi_converged=false; the sweep goes on
            note = f"growth lambda={lam} n={n}: phi_D not computed: {ex}"
            conv = False
        else:  # a truncated optimum is no estimate of phi, but its bracket is proven
            phi, conv = (res.value if res.converged else None), res.converged
            if not conv:
                note = (f"growth lambda={lam} n={n}: phi_D not printed: value {res.value:.17g} "
                        f"is not certified; proven {res.lower:.17g} <= phi <= {res.upper:.17g}")
    return (lam, n, L, phi, "" if conv is None else str(conv).lower(),
            wiener_opt.schaeffer_upper(n), L / math.sqrt(n)), note


def _check_growth(opts):
    for lam in opts.lambdas:
        for n in opts.n:
            spec = SpectrumSpec.single(lam, n)
            spec.require_nonzero()
            spec.require_interior()


def cmd_growth(opts) -> int:
    from .modelspace import row_table

    tasks = [(lam, n, opts.phi_max_n) for lam in opts.lambdas for n in opts.n]
    # each lambda's largest n first, so that its smaller programs slice the
    # Malmquist-Walsh rows of its largest one (forked workers inherit the scope)
    order = sorted(range(len(tasks)), key=lambda i: (i // len(opts.n), -tasks[i][1]))
    with row_table():
        solved = _pool_map(_growth_task, [tasks[i] for i in order], opts.workers)
    results = [res for _, res in sorted(zip(order, solved))]  # input order
    for _, note in results:
        if note is not None:
            print(note, file=sys.stderr)
    _write_table(opts, opts.out,
                 ["lambda", "n", "L", "phi_D", "phi_converged", "sqrt_en", "L_over_sqrt_n"],
                 [row for row, _ in results])
    return 0


def _bounds_task(args):
    from . import resolvent

    lam, n, zeta, C = args
    try:
        q = resolvent.BoundQuery(SpectrumSpec.single(lam, n), zeta, C)
    except DomainError as ex:  # logged as a skipped row
        return [(lam, n, zeta.real, zeta.imag, C, "skipped", float("nan"), None,
                 str(ex).replace(",", ";"))]
    opt = resolvent.optimize_rho(q)
    rows = [(lam, n, zeta.real, zeta.imag, C, opt.rule.value, opt.value,
             opt.rho_star, "true")]
    for rule, value in resolvent.applicable_closed_forms(q).items():
        ok = opt.value <= value + 1e-9 * max(1.0, abs(value))
        rows.append((lam, n, zeta.real, zeta.imag, C, rule.value, value, None,
                     str(ok).lower()))
    return rows


def _check_bounds(opts):
    """The whole sweep's arguments; a finite zeta that meets the spectrum
    only skips its rows."""
    if not 1 <= opts.C < math.inf:
        raise DomainError(f"power-bound constant C = {opts.C} must be finite and >= 1")
    if not opts.zetas:
        raise DomainError("empty zeta list")
    for zeta in opts.zetas:
        if not (math.isfinite(zeta.real) and math.isfinite(zeta.imag)):
            raise DomainError(f"zeta = {zeta} must be finite")
    for lam in opts.lambdas:
        for n in opts.n:
            SpectrumSpec.single(lam, n)


def cmd_bounds(opts) -> int:
    tasks = [(lam, n, z, opts.C)
             for lam in opts.lambdas for n in opts.n for z in opts.zetas]
    results = _pool_map(_bounds_task, tasks, opts.workers)
    rows = [r for res in results for r in res]
    _write_table(opts, opts.out, ["lambda", "n", "zeta_re", "zeta_im", "C", "rule", "value",
                                  "rho_star", "dominance_ok"], rows)
    return 0


def _asym_task(args):
    import numpy as np

    from . import asymptotics

    lam, n, ks, alpha, beta = args
    out = []
    truths = asymptotics.weighted_truth(lam, n, np.array(ks))
    floor = asymptotics.truth_error(lam, n)  # no rel_error for a truth within its error
    airy = asymptotics.uniform_airy_estimates(lam, n, ks)
    # one set of thresholds per task; _check_asymptotics has rejected every k < 0
    thresholds = asymptotics.region_thresholds(lam, n, alpha, beta)
    for k, truth, ae in zip(ks, truths.tolist(), airy):
        region = asymptotics._region_of(thresholds, k)
        est = None
        g2 = None
        flag = ""
        if ae is not None:
            est, g2 = ae.value.real, ae.gamma_sq
            if not ae.branch_ok:
                flag = "branch-tracking"
        else:
            try:
                est = asymptotics.stationary_phase_estimate(lam, n, k, beta)
            except ModeError:
                est = None
        rel = abs(est - truth) / abs(truth) if est is not None and abs(truth) > floor else None
        out.append((lam, n, k, region.value, est, truth, rel, g2, flag))
    return out


def _default_k_grid(lam, n):
    import numpy as np

    from . import asymptotics

    a0 = asymptotics.alpha0(lam)
    ratios = np.linspace(0.9 * a0, 1.1 / a0, 41)
    return sorted({max(2, int(round(a * n))) for a in ratios})


def _check_asymptotics(opts):
    from . import asymptotics

    for lam in opts.lambdas:
        for n in opts.n:
            SpectrumSpec.single(lam, n).require_interior()
            for k in opts.k or [0]:  # k = 0 still checks lambda, alpha, beta
                asymptotics.classify_region(lam, n, k, opts.alpha, opts.beta)


def cmd_asymptotics(opts) -> int:
    from . import asymptotics

    tasks = []
    for lam in opts.lambdas:
        for n in opts.n:
            ks = opts.k if opts.k else _default_k_grid(lam, n)
            tasks.append((lam, n, ks, opts.alpha, opts.beta))
    results = _pool_map(_asym_task, tasks, opts.workers)
    rows = [r for res in results for r in res]
    _write_table(opts, opts.out, ["lambda", "n", "k", "region", "estimate_re", "truth_re",
                                  "rel_error", "gamma_sq", "flag"], rows)
    # per-region decay-rate summary over the n grid
    if len(opts.n) >= 4:
        fit_rows = []
        for lam in opts.lambdas:
            for region in (asymptotics.Region.I, asymptotics.Region.III,
                           asymptotics.Region.IV, asymptotics.Region.V,
                           asymptotics.Region.VII):
                fit = asymptotics.decay_exponent_fit(lam, region, sorted(opts.n),
                                                     alpha=opts.alpha)
                fit_rows.append((lam, region.value, fit.mode, fit.slope))
        _write_csv(opts.out + ".fits.csv", ["lambda", "region", "mode", "slope"],
                   fit_rows)
    return 0


def cmd_validate(opts) -> int:
    from . import acceptance
    from .modelspace import row_table

    numbers = None if opts.criteria is None else set(opts.criteria)
    unknown = sorted((numbers or set()) - set(range(1, len(acceptance.ALL_CRITERIA) + 1)))
    if unknown or numbers == set():  # an unknown or empty selection runs no criterion
        print(f"error: validate: no criterion {', '.join(map(str, unknown)) or 'selected'} "
              f"(criteria are 1..{len(acceptance.ALL_CRITERIA)})", file=sys.stderr)
        return 2
    with row_table():  # criteria 4 and 11 slice the rows of criterion 3's largest program
        results = acceptance.run_all(numbers)
    for r in results:
        print(r.line())
        print(f"criterion {r.number}: {r.elapsed:.3f} s", file=sys.stderr)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(sub, config):
    # each default is config text that the flag's type converts, or rejects as a usage error
    sub.add_argument("--lambda", dest="lambdas", type=_parse_floats,
                     default=config.get("lambda", "0.5"))
    sub.add_argument("--out", default=config.get("out", None))
    sub.add_argument("--format", type=_parse_format, choices=("csv", "json"),
                     default=config.get("format", "csv"))
    sub.add_argument("--workers", type=int, default=config.get("workers", "1"))
    sub.add_argument("--n", type=_parse_ints, default=config.get("n", ""))


def build_parser(config=None):
    config = _Config() if config is None else config
    ap = argparse.ArgumentParser(prog="schaeffer",
                                 description="counterexample growth, resolvent "
                                             "bounds and coefficient asymptotics")
    sp = ap.add_subparsers(dest="command", required=True)

    c = sp.add_parser("coeffs", help="coefficient tables and sup norms")
    _add_common(c, config)
    c.add_argument("--k", dest="kmax", type=int, default=config.get("k"))
    c.set_defaults(fn=cmd_coeffs, check=_check_coeffs, needs_out=True)

    g = sp.add_parser("growth", help="lower-bound and truncated-phi growth study")
    _add_common(g, config)
    g.add_argument("--phi-max-n", type=int, default=config.get("phi_max_n", "64"))
    g.set_defaults(fn=cmd_growth, check=_check_growth, needs_out=True)

    b = sp.add_parser("bounds", help="resolvent bound sweep")
    _add_common(b, config)
    b.add_argument("--zeta", dest="zetas", type=_parse_complexes,
                   default=config.get("zeta", "0"))
    b.add_argument("--C", type=float, default=config.get("C", "1"))
    b.set_defaults(fn=cmd_bounds, check=_check_bounds, needs_out=True)

    a = sp.add_parser("asymptotics", help="estimate-vs-truth sweep and decay fits")
    _add_common(a, config)
    a.add_argument("--k", type=_parse_ints, default=config.get("k", ""))
    a.add_argument("--alpha", type=float, default=config.get("alpha"))
    a.add_argument("--beta", type=float, default=config.get("beta"))
    a.set_defaults(fn=cmd_asymptotics, check=_check_asymptotics, needs_out=True)

    v = sp.add_parser("validate", help="run the acceptance suite")
    v.add_argument("--criteria", type=_parse_ints, default=None)
    v.set_defaults(fn=cmd_validate, needs_out=False)

    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config = _Config()
    if "--config" in argv:
        i = argv.index("--config")
        try:
            config = _load_config(argv[i + 1])
        except (IndexError, OSError) as ex:
            print(f"cannot read config: {ex}", file=sys.stderr)
            return 2
        del argv[i:i + 2]
    ap = build_parser(config)
    unknown = sorted(set(config) - config.read)
    if unknown:
        print(f"error: unknown config key(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    opts = ap.parse_args(argv)
    if opts.needs_out:
        if not opts.n:
            print("error: empty n grid", file=sys.stderr)
            return 2
        if not opts.out:
            print("error: --out is required", file=sys.stderr)
            return 2
        if not opts.lambdas:
            print("error: empty lambda list", file=sys.stderr)
            return 2
        if opts.workers < 1:
            print(f"error: --workers {opts.workers} must be >= 1", file=sys.stderr)
            return 2
        try:
            opts.check(opts)
        except DomainError as ex:
            print(f"error: {opts.command}: {ex}", file=sys.stderr)
            return 2
    try:
        return opts.fn(opts)
    except ResourceError as ex:  # a size past the FFT budget, found before any output
        print(f"error: {opts.command}: {ex}", file=sys.stderr)
        return 2
    except OSError as ex:
        print(f"i/o error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
