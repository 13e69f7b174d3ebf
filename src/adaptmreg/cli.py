"""Command-line interface.

Subcommands: calibrate (writes a calibration artifact), verify (fresh-seed
budget check), bench (benchmark table rows as CSV), prop1 / moments / tails
(study CSVs), denoise (image plus window-size map), simulate (sample dump).

Every stochastic command requires --seed; identical argv plus seed produce
byte-identical outputs. Exit codes: 0 success, 1 validation error, 2 runtime
failure; failures print one machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .calibration import (CalibArtifact, CalibConfig, calibrate, load_artifact,
                          save_artifact, verify_calibration)
from .errors import CalibrationError, ValidationError
from .experiments import (CALIBRATED_METHODS, METHODS, SIGNALS, BenchRow, ExperimentSpec,
                          MomentRow, SampleRow, TailRow, TwoSampleReport, csv_text,
                          median_moment_study, replicate_rows, run_benchmark, tail_study,
                          two_sample_study)
from .imaging import DenoiseConfig, Image, denoise_image, estimate_noise_scale
from .losses import LossKind
from .noise import parse_noise
from .pgmio import read_grid, read_pgm, write_grid, write_pgm
from .windows import (DEFAULT_DISC_BASE, DEFAULT_DISC_GROWTH, DEFAULT_DISC_LEVELS,
                      benchmark_counts, default_disc_radii, equidistant_design)

__all__ = ["run_cli", "main"]


def _number(text: str, flag: str, kind=float):
    """text read as kind (float or int); a ValidationError naming flag if it is not one."""
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"{flag}: {text!r} is not a valid {kind.__name__}") from None


def parse_loss(text: str) -> LossKind:
    t = text.strip().lower()
    if t == "mean":
        return LossKind.mean()
    if t == "median":
        return LossKind.median()
    if t.startswith("quantile:"):
        return LossKind.quantile(_number(t.split(":", 1)[1], "--loss"))
    if t.startswith("huber:"):
        return LossKind.huber(_number(t.split(":", 1)[1], "--loss"))
    raise ValidationError(f"unknown loss {text!r} "
                          "(mean, median, quantile:A, huber:K)")


class _Parser(argparse.ArgumentParser):
    # argparse calls error() and exits; route through ValidationError instead
    def error(self, message):  # noqa: D102
        raise ValidationError(message)


def _read_config_file(path: str) -> dict[str, str]:
    """key = value lines; blank lines and # comments ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: "
                              f"{exc.strerror or exc}") from exc
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValidationError(f"bad config line {line!r} (expected key = value)")
        out[key.strip().replace("-", "_")] = val.strip()
    return out


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The parser, built once per process: a parse fills a new namespace and
    changes no default (--config rewrites argv), so it can be reused."""
    parser = _Parser(prog="adaptmreg",
                     description="pointwise-adaptive robust regression tools")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed_required=True):
        p.add_argument("--config", help="key = value defaults file; flags override")
        p.add_argument("--seed", type=int, required=seed_required,
                       help="master seed (required: runs must be reproducible)")

    p = sub.add_parser("calibrate", help="calibrate critical values by monte carlo")
    add_common(p)
    p.add_argument("--family", choices=["bench1d", "disc2d"], default="bench1d")
    p.add_argument("--n", type=int, default=200, help="1d design size")
    p.add_argument("--counts", choices=["standard", "alt"], default="standard")
    p.add_argument("--count-levels", type=int, default=17)
    p.add_argument("--radius0", type=float, default=DEFAULT_DISC_BASE, help="2d base radius")
    p.add_argument("--radius-growth", type=float, default=DEFAULT_DISC_GROWTH)
    p.add_argument("--radius-levels", type=int, default=DEFAULT_DISC_LEVELS)
    p.add_argument("--loss", default="median")
    p.add_argument("--noise", default="laplace")
    p.add_argument("--rule", choices=["ring", "lepski"], default="ring")
    p.add_argument("--mode", choices=["zeta", "sequential"], default="zeta")
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--runs", type=int, default=10000)
    p.add_argument("--levels", choices=["auto", "exact", "asymptotic", "mc"],
                   default="auto", help="level method, of the pair levels too (lepski rule)")
    p.add_argument("--levels-runs", type=int, default=None,
                   help="monte carlo runs for the window and pair levels (--levels mc)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="fresh-seed calibration budget check")
    add_common(p)
    p.add_argument("--calib", required=True)
    p.add_argument("--runs", type=int, default=None)

    p = sub.add_parser("bench", help="benchmark table rows")
    add_common(p)
    p.add_argument("--example", type=int, choices=[1, 2], required=True)
    p.add_argument("--noise", default="laplace")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--calib", default=None, help="directory with <method>.cal files, or "
                   "method=path[,...]; needed when a method selects")
    p.add_argument("--trace", default=None,
                   help="dump the selection trace of replicate 0 per method")
    p.add_argument("--out", required=True)

    p = sub.add_parser("prop1", help="two-sample location test variance study")
    add_common(p)
    p.add_argument("--noise", default="laplace")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--runs", type=int, default=20000)
    p.add_argument("--out", required=True)

    p = sub.add_parser("moments", help="sample median moment scaling study")
    add_common(p)
    p.add_argument("--noise", default="laplace")
    p.add_argument("--n-points", default="101,401,1601",
                   help="comma list of odd sample sizes")
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--runs", type=int, default=100000)
    p.add_argument("--out", required=True)

    p = sub.add_parser("tails", help="sample median tail bound study")
    add_common(p)
    p.add_argument("--noise", default="laplace")
    p.add_argument("--n-points", type=int, default=1001)
    p.add_argument("--taus", default="0,1,2,3")
    p.add_argument("--runs", type=int, default=100000)
    p.add_argument("--out", required=True)

    p = sub.add_parser("denoise", help="adaptive image denoising")
    add_common(p, seed_required=False)
    p.add_argument("--in", dest="infile", required=True, help="PGM or AMRGRID1 input")
    p.add_argument("--calib", required=True, help="disc2d calibration artifact")
    p.add_argument("--sigma", default="auto", help="noise scale or 'auto'")
    p.add_argument("--out", required=True)
    p.add_argument("--khat", default=None, help="window-size map output (PGM)")

    p = sub.add_parser("simulate", help="dump one noisy benchmark realization")
    add_common(p)
    p.add_argument("--example", type=int, choices=[1, 2], required=True)
    p.add_argument("--noise", default="laplace")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--out", required=True)
    return parser


def _family_for_calibrate(args) -> tuple[str, dict]:
    """The family's saved description: its kind and meta."""
    if args.family == "bench1d":
        return "line1d", {"n": args.n, "counts": benchmark_counts(args.count_levels, args.counts)}
    radii = default_disc_radii(args.radius_levels, args.radius0, args.radius_growth)
    return "disc2d", {"radii": [float(r) for r in radii]}


def _cmd_calibrate(args) -> int:
    kind, meta = _family_for_calibrate(args)
    config = CalibConfig(family_kind=kind, family_meta=meta, loss=parse_loss(args.loss),
                         noise=parse_noise(args.noise), r=args.r, alpha=args.alpha,
                         runs=args.runs, seed=args.seed, mode=args.mode, rule=args.rule)
    method = {"exact": "exact_mean", "mc": "monte_carlo"}.get(args.levels, args.levels)
    art = calibrate(config, method, args.levels_runs)
    save_artifact(args.out, art)
    for w in art.levels.warnings + (art.pair.warnings if art.pair else ()) + config.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"calibrated {args.rule}/{args.mode} loss={config.loss.label} "
          f"achieved={art.achieved_lhs!r} budget={art.budget!r} -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    ratio, warnings = verify_calibration(load_artifact(args.calib), seed=args.seed,
                                         runs=args.runs)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"ratio: {ratio!r}")
    return 0


def _load_bench_artifacts(spec_methods, arg: str) -> dict[str, CalibArtifact]:
    path = Path(arg)
    if path.is_dir():
        paths = {m: path / f"{m}.cal" for m in spec_methods if m in CALIBRATED_METHODS}
    else:
        paths = {}
        for part in arg.split(","):
            name, sep, p = (s.strip() for s in part.partition("="))
            if not sep:
                raise ValidationError(
                    "--calib must be a directory or method=path[,method=path...]")
            if name not in CALIBRATED_METHODS or name not in spec_methods:
                raise ValidationError(f"--calib entry {part.strip()!r} names no method "
                                      "of --methods that takes an artifact")
            if name in paths:
                raise ValidationError(f"--calib names the method {name} twice")
            paths[name] = p
    return {m: load_artifact(p) for m, p in paths.items()}


def _cmd_bench(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    spec = ExperimentSpec(example=args.example, noise=parse_noise(args.noise),
                          n=args.n, runs=args.runs, methods=methods,
                          seed=args.seed)
    artifacts = {} if args.calib is None else _load_bench_artifacts(methods, args.calib)
    report = run_benchmark(spec, artifacts)
    Path(args.out).write_text(csv_text(BenchRow, report.rows))
    if args.trace:
        Path(args.trace).write_text("".join(
            f"# method {m} k_hat {t.k_hat}\n" + t.format_rows()
            for m, t in sorted(report.traces.items())))
    print(f"bench example={args.example} noise={spec.noise.label} -> {args.out}")
    return 0


def _cmd_prop1(args) -> int:
    report = two_sample_study(parse_noise(args.noise), args.delta, args.n,
                              args.runs, args.seed)
    Path(args.out).write_text(csv_text(TwoSampleReport, [report]))
    print(f"prop1 -> {args.out}")
    return 0


def _cmd_moments(args) -> int:
    ns = [_number(v, "--n-points", int) for v in args.n_points.split(",") if v.strip()]
    rows = median_moment_study(parse_noise(args.noise), ns, args.r,
                               args.runs, args.seed)
    Path(args.out).write_text(csv_text(MomentRow, rows))
    print(f"moments -> {args.out}")
    return 0


def _cmd_tails(args) -> int:
    taus = [_number(v, "--taus") for v in args.taus.split(",") if v.strip()]
    rows = tail_study(parse_noise(args.noise), args.n_points, taus,
                      args.runs, args.seed)
    Path(args.out).write_text(csv_text(TailRow, rows))
    print(f"tails -> {args.out}")
    return 0


def _read_image(path: str) -> tuple[Image, int | None]:
    try:
        if path.endswith(".pgm"):
            arr, maxval = read_pgm(path)
            return Image(arr), maxval
        return Image(read_grid(path)), None
    except OSError as exc:
        raise ValidationError(f"cannot read input image {path}: "
                              f"{exc.strerror or exc}") from exc


def _write_image(path: str, image: Image, maxval: int | None) -> None:
    if path.endswith(".pgm"):
        write_pgm(path, image.intensities, maxval if maxval else 255)
    else:
        write_grid(path, image.intensities)


def _cmd_denoise(args) -> int:
    art = load_artifact(args.calib)
    sigma = None if args.sigma == "auto" else _number(args.sigma, "--sigma")
    image, maxval = _read_image(args.infile)
    if sigma is None:
        sigma = estimate_noise_scale(image, art.config.noise)
    config = DenoiseConfig(art, sigma)
    denoised, khat = denoise_image(image, config)
    _write_image(args.out, denoised, maxval)
    if args.khat:
        write_pgm(args.khat, khat, max(art.config.family.K, 1))
    print(f"denoise {image.width}x{image.height} sigma={sigma!r} -> {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    spec = ExperimentSpec(example=args.example, noise=parse_noise(args.noise),
                          n=args.n, seed=args.seed)
    xs = equidistant_design(args.n)
    g = SIGNALS[spec.example](xs)
    y = replicate_rows(spec, g, 0, 1)[0]
    Path(args.out).write_text(csv_text(SampleRow, [SampleRow(i, xs[i], g[i], y[i])
                                                   for i in range(args.n)]))
    print(f"simulate -> {args.out}")
    return 0


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "prop1": _cmd_prop1,
    "moments": _cmd_moments,
    "tails": _cmd_tails,
    "denoise": _cmd_denoise,
    "simulate": _cmd_simulate,
}


def _apply_config(argv: list[str]) -> list[str]:
    """Insert config-file settings as flags right after the command word.

    The file is named as argparse would read it: --config FILE or
    --config=FILE, or an abbreviation of at least --c (--conf FILE). argparse
    keeps the last value of a repeated flag, so an explicit flag in any
    spelling (--noise x, --noise=x, --nois x) wins over the file. Unknown
    keys surface as unrecognized arguments during the parse.
    """
    path = None
    for arg, nxt in zip(argv, argv[1:] + [None]):
        name, eq, value = arg.partition("=")
        if len(name) >= 3 and "--config".startswith(name):
            path = value if eq else nxt
    if path is None:
        return argv
    extra: list[str] = []
    for key, val in _read_config_file(path).items():
        if key == "config":
            raise ValidationError("config files cannot nest")
        extra.extend(["--" + key.replace("_", "-"), val])
    return argv[:1] + extra + argv[1:]


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_apply_config(list(argv)))
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 1
    except CalibrationError as exc:
        print(f"error: calibration: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: runtime: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
