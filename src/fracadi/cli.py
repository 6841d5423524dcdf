"""Command-line driver: single runs, convergence studies, verification.

Configuration comes from an INI-style file ([run] section, optional
inline [problem] section) with command-line flags taking precedence.
Outputs are CSV rate tables, whitespace-delimited plot data, and a
key-value diagnostics record; every float is written with 15
significant digits so identical configurations reproduce identical
files.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 I/O failure.
"""
from __future__ import annotations

import argparse
import configparser
import math
import operator
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .basis import evaluate_field
from .oracle import verify_checks
from .problems import (
    PROBLEM_IDS,
    ProblemSpec,
    Rectangle,
    SeparableTerm,
    SpatialProfile,
    boundary_mismatch,
    get_problem,
)
from .solver import BOOTSTRAP_RATIO, SOURCE_MODES, reduce_order, run, step_coefficients
from .weights import (
    MAX_CORRECTION_TERMS,
    StartingWeightError,
    binomial_weights,
    build_correction_set,
    check_exponents,
    default_sigmas,
    shifted_weights,
)

SNAPSHOT_POINTS = 101


class ConfigError(Exception):
    """Invalid run configuration; messages name the offending fields."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


def fmt(value):
    """15-significant-digit text for any real number."""
    return f"{value:.15g}"


def _parse_floats(text, count=None):
    parts = [p for p in text.replace(",", " ").split() if p]
    vals = tuple(float(p) for p in parts)
    if count is not None and len(vals) != count:
        raise ValueError(f"expected {count} numbers, got {len(vals)}")
    return vals


def _parse_levels(text):
    return tuple(int(v) for v in text.replace(",", " ").split())


def _setting(default, parse, study=False, **flag):
    """Field of a [run] key: its default, the parser of its INI text, its flag's options.

    The key is also the flag --<key>, dashes for underscores, with dest
    <key>; a study setting is a flag of `study` alone.
    """
    return field(default=default, metadata={"parse": parse, "study": study, "flag": flag})


@dataclass
class RunConfig:
    """One resolved run or study request; fields in the order `--help` lists the flags."""

    output: str = _setting(".", str.strip, help="output directory (default .)")
    problem: str = _setting(None, str.strip, help="registered problem id")
    custom: dict = None  # the inline [problem] section
    N: int = _setting(None, int, type=int, help="polynomial degree per direction")
    M: int = _setting(None, int, type=int, help="number of time steps")
    T: float = _setting(1.0, float, type=float, help="final time (default 1)")
    m: int = _setting(0, int, type=int, help="correction terms (default 0)")
    sigma: tuple = _setting(None, _parse_floats, type=float, nargs="+", help="correction exponents")
    bootstrap_ratio: int = _setting(
        BOOTSTRAP_RATIO, int, type=int,
        help=f"fine/coarse step ratio for starting values (default {BOOTSTRAP_RATIO})",
    )
    source_mode: str = _setting(
        "auto", str.strip, choices=SOURCE_MODES, help="reduced-source evaluation path"
    )
    study_param: str = _setting(
        "tau", str.strip, study=True, choices=("tau", "N"),
        help="which parameter the levels refine (default tau)",
    )
    levels: tuple = _setting(
        None, _parse_levels, study=True, type=int, nargs="+",
        help="refinement levels (M or N values)",
    )

    def validate(self, need_study=False):
        """Check every field, collecting all errors; return the ProblemSpec."""
        errors = []
        if self.problem is None and self.custom is None:
            errors.append("problem: no problem id given and no [problem] section defined")
        if self.problem is not None and self.custom is not None:
            errors.append("problem: both a registry id and an inline [problem] section given")
        if self.problem is not None and self.custom is None and self.problem not in PROBLEM_IDS:
            errors.append(
                f"problem: unknown id {self.problem!r}; available: {', '.join(PROBLEM_IDS)}"
            )
        if not (need_study and self.study_param == "N"):
            if self.N is None:
                errors.append("N: polynomial degree is required")
            elif self.N < 4:
                errors.append(f"N: degree must be at least 4, got {self.N}")
        if need_study:
            if self.study_param not in ("tau", "N"):
                errors.append(f"study_param: must be 'tau' or 'N', got {self.study_param!r}")
            if self.levels is None or len(self.levels) < 2:
                errors.append("levels: a study needs at least two refinement levels")
            elif any(v < 1 for v in self.levels):
                errors.append("levels: refinement levels must be positive integers")
            elif self.study_param == "N" and any(v < 4 for v in self.levels):
                errors.append("levels: N levels must be at least 4")
            elif any(a == b for a, b in zip(self.levels, self.levels[1:])):
                errors.append("levels: consecutive refinement levels must differ")
            elif self.study_param == "tau" and min(self.levels) <= self.m:
                errors.append(
                    f"levels: step counts must exceed the correction count m = {self.m}"
                )
        if not need_study or self.study_param == "N":  # else the levels are step counts
            if self.M is None:
                errors.append(
                    "M: an N-study needs a fixed step count"
                    if need_study
                    else "M: step count is required"
                )
            elif self.M < 0:
                errors.append(f"M: step count must be nonnegative, got {self.M}")
            elif need_study and self.M == 0:  # every error of a study is 0 at t = 0
                errors.append(f"M: an N-study needs at least one step, got {self.M}")
            elif 0 < self.M <= self.m:
                errors.append(
                    f"M: step count must exceed the correction count m = {self.m}, got {self.M}"
                )
        if self.T <= 0.0:
            errors.append(f"T: final time must be positive, got {fmt(self.T)}")
        elif not math.isfinite(self.T):
            errors.append(f"T: final time must be finite, got {fmt(self.T)}")
        if not 0 <= self.m <= MAX_CORRECTION_TERMS:
            errors.append(
                f"m: correction count must lie in 0..{MAX_CORRECTION_TERMS}, got {self.m}"
            )
        if self.sigma is not None:
            if self.m == 0:
                errors.append("sigma: exponents given, but m = 0 requests no corrections")
            elif len(self.sigma) != self.m:
                errors.append(
                    f"sigma: expected {self.m} exponents for m = {self.m}, got {len(self.sigma)}"
                )
            elif self.m <= MAX_CORRECTION_TERMS:  # else m's message covers the count
                try:
                    check_exponents(self.sigma)
                except ValueError as exc:
                    errors.append(f"sigma: {exc}")
        if self.bootstrap_ratio < 1:
            errors.append(f"bootstrap_ratio: must be at least 1, got {self.bootstrap_ratio}")
        if self.source_mode not in SOURCE_MODES:
            errors.append(
                f"source_mode: must be auto, analytic or sampled, got {self.source_mode!r}"
            )
        spec = None
        if self.custom is not None:
            try:
                spec = build_custom_problem(self.custom)
            except ConfigError as exc:
                errors.extend(exc.messages)
        elif self.problem in PROBLEM_IDS:
            spec = get_problem(self.problem)
        if need_study and spec is not None and not spec.has_exact:
            errors.append("problem: a study needs a problem with an exact solution")
        if need_study and self.study_param == "tau":
            counts = [n for n in self.levels or () if n >= 1]
        else:
            counts = [self.M] if self.M is not None and self.M >= 1 else []
        if spec is not None and counts and 0.0 < self.T < math.inf:
            errors.extend(_step_errors(spec, self.T, counts))
        if errors:
            raise ConfigError(errors)
        return spec

    def sigmas(self):
        return self.sigma if self.sigma is not None else default_sigmas(self.m)


def _step_errors(spec, final_time, counts):
    """T: messages for the steps T/n, n in counts, that no march can take.

    The smallest step must be a normal float (a subnormal one loses its
    digits, and the rate table divides by it); the largest must give
    finite step coefficients, which grow with the step.
    """
    n = max(counts)
    if final_time / n < sys.float_info.min:
        return [f"T: step T/{n} = {fmt(final_time / n)} is below the smallest normal float"]
    n = min(counts)
    try:
        coeffs = step_coefficients(reduce_order(spec), final_time / n)
        finite = all(map(math.isfinite, (coeffs.mass_coef, coeffs.grad_coef, coeffs.cross_coef)))
    except OverflowError:
        finite = False
    if not finite:
        return [f"T: step T/{n} = {fmt(final_time / n)} overflows the step coefficients"]
    return []


# -- custom problems from config ------------------------------------------

def _sine_mode(kx, ky, domain):
    """Mode sin(kx pi (x-ax)/Lx) sin(ky pi (y-ay)/Ly): zero on the boundary."""
    fx = kx * math.pi / (domain.bx - domain.ax)
    fy = ky * math.pi / (domain.by - domain.ay)
    ax, ay = domain.ax, domain.ay

    def values(x, y):
        return np.sin(fx * (x - ax)) * np.sin(fy * (y - ay))

    def laplacian(x, y):
        return -(fx**2 + fy**2) * values(x, y)

    return SpatialProfile(values=values, laplacian=laplacian)


def build_custom_problem(section):
    """ProblemSpec from an inline [problem] config section.

    Forcing is a sum of sine modes of the rectangle, each with a list of
    (coefficient, exponent) power-law time factors:
    forcing_mode_<kx>_<ky> = c1 e1, c2 e2, ...
    Custom problems carry no exact solution; runs report norms only.
    """
    errors = []
    data = dict(section)
    name = data.pop("name", "custom")

    def grab(key, count=None):
        raw = data.pop(key, None)
        if raw is None:
            errors.append(f"problem.{key}: missing required key")
            return None
        try:
            return _parse_floats(raw, count)
        except ValueError as exc:
            errors.append(f"problem.{key}: {exc}")
            return None

    alpha = grab("alpha", 1)
    alphas = grab("alphas") or () if "alphas" in data else ()
    coeffs = grab("coeffs") or () if "coeffs" in data else ()
    mu = grab("mu", 1)
    domain_vals = grab("domain", 4)

    domain = None
    if domain_vals is not None:
        try:
            domain = Rectangle(*domain_vals)
        except ValueError as exc:
            errors.append(f"problem.domain: {exc}")

    forcing = []
    for key in sorted(data):
        if not key.startswith("forcing_mode_"):
            errors.append(f"problem.{key}: unknown key")
            continue
        tail = key[len("forcing_mode_") :].split("_")
        if len(tail) != 2 or not all(p.isdigit() and int(p) > 0 for p in tail):
            errors.append(f"problem.{key}: expected forcing_mode_<kx>_<ky> with positive integers")
            continue
        if domain is None:
            continue
        profile = _sine_mode(int(tail[0]), int(tail[1]), domain)
        for pair in data[key].split(","):
            if not pair.strip():
                continue
            try:
                c, e = _parse_floats(pair, 2)
                forcing.append(SeparableTerm(c, e, profile))
            except ValueError as exc:
                errors.append(f"problem.{key}: {exc}")

    if errors:
        raise ConfigError(errors)
    try:
        return ProblemSpec(
            name=name,
            alpha=alpha[0],
            alphas=alphas,
            coeffs=coeffs,
            mu=mu[0],
            domain=domain,
            forcing_terms=tuple(forcing),
        )
    except ValueError as exc:
        # ProblemSpec messages start with the field they reject
        raise ConfigError([f"problem.{exc}"]) from None


# -- config file / flag merging --------------------------------------------


def load_config_file(path):
    parser = configparser.ConfigParser()
    parser.optionxform = str  # M (steps) and m (corrections) must not collide
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError([f"config: {exc}"]) from None
    run_section = dict(parser["run"]) if parser.has_section("run") else {}
    problem_section = dict(parser["problem"]) if parser.has_section("problem") else None
    return run_section, problem_section


# Every [run] key, with the parser of its INI text
_RUN_KEYS = {f.name: f.metadata["parse"] for f in fields(RunConfig) if f.metadata}


def build_run_config(args):
    """Merge the config file (if any) with command-line overrides."""
    cfg = RunConfig()
    errors = []
    if getattr(args, "config", None):
        run_section, problem_section = load_config_file(args.config)
        cfg.custom = problem_section
        for key, raw in run_section.items():
            if key not in _RUN_KEYS:
                errors.append(f"run.{key}: unknown key")
                continue
            try:
                setattr(cfg, key, _RUN_KEYS[key](raw))
            except ValueError as exc:
                errors.append(f"run.{key}: {exc}")
    if errors:
        raise ConfigError(errors)

    for key in _RUN_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, tuple(value) if isinstance(value, list) else value)
    return cfg


# -- rate tables ------------------------------------------------------------


def convergence_rates(errors, params):
    """rate[i] = log(e[i-1]/e[i]) / log(h[i-1]/h[i]), None where undefined: i = 0, or an e <= 0."""
    if len(errors) != len(params):
        raise ValueError("one error per refinement level")
    rates = [None] * len(errors)
    for i in range(1, len(errors)):
        if errors[i - 1] > 0.0 and errors[i] > 0.0:
            rates[i] = math.log(errors[i - 1] / errors[i]) / math.log(params[i - 1] / params[i])
    return rates


@dataclass
class RateTable:
    """Error/rate rows of one refinement study.

    `params` labels the rows (1/tau or N); `hs` is the refined parameter
    the rate formula divides by (tau itself for temporal studies).
    """

    param_name: str
    params: tuple
    l2_errors: tuple
    max_errors: tuple
    hs: tuple = None

    rates: tuple = field(init=False)
    max_rates: tuple = field(init=False)

    def __post_init__(self):
        hs = self.hs if self.hs is not None else self.params
        self.rates = tuple(convergence_rates(self.l2_errors, hs))
        self.max_rates = tuple(convergence_rates(self.max_errors, hs))

    def header(self):
        return f"{self.param_name}, l2_error, rate, max_l2_error, max_rate"

    def csv_lines(self):
        lines = [self.header()]
        for p, e, r, em, rm in zip(
            self.params, self.l2_errors, self.rates, self.max_errors, self.max_rates
        ):
            rs = fmt(r) if r is not None else ""
            rms = fmt(rm) if rm is not None else ""
            lines.append(f"{fmt(p)}, {fmt(e)}, {rs}, {fmt(em)}, {rms}")
        return lines


def parse_rate_csv(path):
    """Read a rates.csv back as (header, rows of float-or-None)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    rows = []
    for line in lines[1:]:
        cells = [c.strip() for c in line.split(",")]
        rows.append(tuple(float(c) if c else None for c in cells))
    return lines[0], rows


# -- output files ------------------------------------------------------------


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def snapshot_lines(result):
    """Uniform-grid 'x y value' triplets of u = u_reduced + lifted g1."""
    domain = result.tp.domain
    xs = np.linspace(domain.ax, domain.bx, SNAPSHOT_POINTS)
    ys = np.linspace(domain.ay, domain.by, SNAPSHOT_POINTS)
    values = np.zeros((SNAPSHOT_POINTS, SNAPSHOT_POINTS))
    # basis functions vanish identically on the boundary rows/columns
    values[1:-1, 1:-1] = evaluate_field(result.field(), xs[1:-1], ys[1:-1])
    if result.tp.lift is not None:
        values = values + result.tp.lift.values(xs[:, None], ys[None, :])
    ys = [fmt(y) for y in ys]
    return [
        f"{x} {y} {fmt(v)}" for x, row in zip(map(fmt, xs), values) for y, v in zip(ys, row)
    ]


def diagnostics_lines(cfg, problem, result):
    lines = [
        "command = run",
        f"problem = {problem.name}",
        f"N = {cfg.N}",
        f"M = {cfg.M}",
        f"T = {fmt(cfg.T)}",
        f"m = {result.correction_terms}",
        f"sigma = {' '.join(fmt(s) for s in result.exponents)}",
        f"bootstrap_ratio = {cfg.bootstrap_ratio}",
        f"source_mode = {cfg.source_mode}",
        f"source_mode_used = {result.source_mode}",
        f"marched_modes = {result.marched_modes} of {result.basis_x.dim * result.basis_y.dim}",
        f"tau = {fmt(result.tau)}",
        f"final_l2_norm = {fmt(result.norms[-1])}",
        f"max_l2_norm = {fmt(np.max(result.norms))}",
        f"stability_ratio = {fmt(result.stability_ratio)}",
    ]
    if result.error_final is not None:
        lines.append(f"final_l2_error = {fmt(result.error_final)}")
        lines.append(f"max_l2_error = {fmt(result.error_max)}")
    if problem.has_exact:
        lines.append(f"boundary_mismatch = {fmt(boundary_mismatch(problem, cfg.T))}")
    return lines


# -- subcommands -------------------------------------------------------------


def _note_large_step(step):
    """Say on stderr that a step of 1 or more is outside the stability analysis."""
    if step >= 1.0:
        note = f"note: step T/M = {fmt(step)} is >= 1, outside the stability analysis"
        print(note, file=sys.stderr)


def _execute(cfg, problem, steps, degree):
    return run(
        problem,
        degree,
        steps,
        cfg.T,
        correction_terms=cfg.m,
        exponents=cfg.sigmas() or None,
        bootstrap_ratio=cfg.bootstrap_ratio,
        source_mode=cfg.source_mode,
    )


def _ensure_outdir(path):
    outdir = Path(path)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def cmd_run(args):
    cfg = build_run_config(args)
    problem = cfg.validate()
    if cfg.M:
        _note_large_step(cfg.T / cfg.M)
    result = _execute(cfg, problem, cfg.M, cfg.N)

    outdir = _ensure_outdir(cfg.output)
    diag = diagnostics_lines(cfg, problem, result)
    write_lines(outdir / "diagnostics.txt", diag)
    write_lines(outdir / "surface.dat", snapshot_lines(result))
    for line in diag:
        print(line)
    print(f"wall_time_s = {result.wall_time:.3f}")
    print(f"wrote {outdir / 'diagnostics.txt'}")
    print(f"wrote {outdir / 'surface.dat'}")
    return 0


def cmd_study(args):
    cfg = build_run_config(args)
    problem = cfg.validate(need_study=True)

    if cfg.study_param == "tau":
        jobs = [(cfg.N, int(level)) for level in cfg.levels]
        params = tuple(level / cfg.T for level in cfg.levels)  # 1/tau
        hs = tuple(cfg.T / level for level in cfg.levels)
        param_name = "one_over_tau"
    else:
        jobs = [(int(level), cfg.M) for level in cfg.levels]
        params = tuple(float(level) for level in cfg.levels)
        hs = params
        param_name = "N"

    _note_large_step(max(cfg.T / steps for _, steps in jobs))
    # one level at a time: the marches are memory-bound, so running levels
    # concurrently only added CPU time and peak memory; each RunResult dies
    # once its two errors are read
    errors = operator.attrgetter("error_final", "error_max")
    l2_errors, max_errors = zip(
        *(errors(_execute(cfg, problem, steps, degree)) for degree, steps in jobs)
    )

    table = RateTable(
        param_name=param_name, params=params, l2_errors=l2_errors, max_errors=max_errors, hs=hs
    )
    outdir = _ensure_outdir(cfg.output)
    write_lines(outdir / "rates.csv", table.csv_lines())
    conv = [f"# {param_name} l2_error"]
    conv += [f"{fmt(p)} {fmt(e)}" for p, e in zip(table.params, table.l2_errors)]
    write_lines(outdir / "convergence.dat", conv)
    for line in table.csv_lines():
        print(line)
    print(f"wrote {outdir / 'rates.csv'}")
    print(f"wrote {outdir / 'convergence.dat'}")
    return 0


def cmd_weights(args):
    order = args.order
    if not -1.0 <= order <= 1.0:
        raise ConfigError([f"order: must lie in [-1, 1], got {fmt(order)}"])
    for name, value in (("count", args.count), ("rows", args.rows)):
        if value < 0:
            raise ConfigError([f"{name}: must be nonnegative, got {value}"])
    cs = None
    if args.sigma:
        try:
            cs = build_correction_set((order,), args.sigma, max(args.rows + 1, 2))
        except StartingWeightError:
            raise
        except ValueError as exc:
            raise ConfigError([f"sigma: {exc}"]) from None
    raw = binomial_weights(order, args.count)
    lam = shifted_weights(order, args.count)
    print("# j g_j lambda_j")
    for j in range(args.count + 1):
        print(f"{j} {fmt(raw[j])} {fmt(lam[j])}")
    if cs is not None:
        sigma = " ".join(map(fmt, cs.exponents))
        for title, table in (
            (f"# frac rows, order {fmt(order)}, sigma {sigma}", cs.frac[order]),
            ("# delta rows", cs.delta),
            ("# perturb rows", cs.perturb),
        ):
            print(title)
            for k in range(1, args.rows + 1):
                print(f"{k} " + " ".join(fmt(v) for v in table[k]))
    return 0


def cmd_verify(args):
    failures = 0
    for name, ok, metric in verify_checks():
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{status} {name} ({metric:.3e})")
    if failures:
        print(f"{failures} check(s) failed")
        return 2
    print("all checks passed")
    return 0


# -- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError([f"usage: {message}"])


def make_parser():
    parser = _Parser(prog="fracadi", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    for command, text in (
        ("run", "single march: snapshot + diagnostics"),
        ("study", "refinement study: rate table"),
    ):
        sub = subs.add_parser(command, help=text)
        sub.add_argument("--config", help="INI config file ([run] and optional [problem] sections)")
        for f in fields(RunConfig):
            if f.metadata and (command == "study" or not f.metadata["study"]):
                flag = "--" + f.name.replace("_", "-")
                sub.add_argument(flag, dest=f.name, **f.metadata["flag"])

    weights_p = subs.add_parser("weights", help="dump weight sequences")
    weights_p.add_argument("--order", type=float, required=True, help="operator order in [-1, 1]")
    weights_p.add_argument("--count", type=int, default=12, help="largest index to print")
    weights_p.add_argument("--sigma", type=float, nargs="+", help="also dump starting-weight rows")
    weights_p.add_argument("--rows", type=int, default=6, help="starting-weight rows to print")

    subs.add_parser("verify", help="run oracle cross-checks")
    return parser


_COMMANDS = {"run": cmd_run, "study": cmd_study, "weights": cmd_weights, "verify": cmd_verify}


def main(argv=None):
    try:
        args = make_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the size of the array that did not fit
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
