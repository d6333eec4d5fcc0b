"""Command-line interface: condense, discrepancy, evaluate, plot.

Exit codes: 0 success, 2 configuration/input error, 3 numerical failure.
A JSON config file seeds the run; explicitly passed flags win over file values.
"""
from __future__ import annotations

import argparse
import sys

from .condense import MethodConfig
from .data import read_json
from .discrepancy import CF_FREQUENCIES
from .errors import CondensationError, ConfigError, DivergenceError, NumericalError, SolveError, check_keys
from .harness import (
    EvalConfig,
    EvalReport,
    RunConfig,
    discrepancy_command,
    emit_plots,
    evaluate_command,
    run,
)
from .kernels import KernelSpec

_NUMERIC_ERRORS = (DivergenceError, NumericalError, SolveError)
_NOT_IN_FILES = ("autoencoder", "seed")  # an object, and the seed that the run derives from its own


def _build_run_config(args) -> RunConfig:
    file_cfg: dict = {}
    if args.config:
        file_cfg = check_keys(read_json(args.config), RunConfig, "")
    method_d = check_keys(file_cfg.get("method", {}), MethodConfig, "method", exclude=_NOT_IN_FILES)
    if args.method is not None:
        method_d["method"] = args.method
    if "method" not in method_d:
        raise ConfigError("no condensation method given (flag --method or config file)")
    flags = {"dataset": args.dataset, "out_dir": args.out, "seed": args.seed, "per_class": args.per_class}
    run_d = {**file_cfg, **{key: value for key, value in flags.items() if value is not None}}
    if run_d.get("dataset") is None:
        raise ConfigError("no dataset given (flag --dataset or config file)")
    if method_d.get("kernel") is not None:
        kernel_d = check_keys(method_d["kernel"], KernelSpec, "method.kernel", exclude=("model", "encoder", "base"))
        if "family" not in kernel_d:
            raise ConfigError("method.kernel.family is required")
        method_d["kernel"] = KernelSpec(**kernel_d)
    run_d["method"] = MethodConfig(**method_d)
    run_d["eval"] = EvalConfig(**check_keys(run_d.get("eval", {}), EvalConfig, "eval"))
    return RunConfig(**run_d)


def _print_accuracies(report: EvalReport) -> None:
    for name, entry in report.per_architecture.items():
        print(f"  {name}: accuracy {entry['mean']:.4f} +/- {entry['std']:.4f}")
    print(f"  baseline: {report.baseline_accuracy:.4f}  gd_estimate: {report.gd_estimate:.6f}")
    if report.robust_accuracy is not None:
        print(f"  robust accuracy: {report.robust_accuracy:.4f}")


def _cmd_condense(args) -> int:
    cfg = _build_run_config(args)
    report = run(cfg)
    print(f"condense: method={cfg.method.method} seed={cfg.seed}")
    _print_accuracies(report)
    if cfg.out_dir:
        print(f"  artifacts in {cfg.out_dir}")
    return 0


def _cmd_discrepancy(args) -> int:
    selectors = tuple(s.strip() for s in args.metrics.split(",") if s.strip())
    report = discrepancy_command(args.a, args.b, selectors, freq_count=args.freqs, seed=args.seed, out_path=args.out)
    for name in selectors:
        print(f"{name}: {report.values[name]:.12g}")
    return 0


def _cmd_evaluate(args) -> int:
    overrides = {k: v for k, v in (("repeats", args.repeats), ("pgd_eps", args.pgd_eps)) if v is not None}
    report = evaluate_command(args.synthetic, args.real, args.out, seed=args.seed, **overrides)
    _print_accuracies(report)
    return 0


def _cmd_plot(args) -> int:
    written = emit_plots(args.report, args.log, args.out)
    for p in written:
        print(p)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dckit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("condense", help="run a condensation pipeline end to end")
    p.add_argument("--config", help="JSON run config; explicit flags override it")
    p.add_argument("--dataset", help="CSV dataset path")
    p.add_argument("--method", help="condensation method name")
    p.add_argument("--out", help="output directory for artifacts")
    p.add_argument("--seed", type=int)
    p.add_argument("--per-class", dest="per_class", type=int)
    p.set_defaults(fn=_cmd_condense)

    p = sub.add_parser("discrepancy", help="compute discrepancies between two CSV datasets")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--metrics", default="mmd,w1,hausdorff")
    p.add_argument("--freqs", type=int, default=CF_FREQUENCIES)
    # cd's frequency seed: the run's when --b is a run's synthetic set, else 0
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(fn=_cmd_discrepancy)

    p = sub.add_parser("evaluate", help="train fresh models on a synthetic set and score them")
    p.add_argument("--synthetic", required=True)
    p.add_argument("--real", required=True)
    # each of these defaults to the run's value, which the synthetic sidecar records
    p.add_argument("--repeats", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--pgd-eps", dest="pgd_eps", type=float)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("plot", help="emit objective/accuracy plots from run artifacts")
    p.add_argument("--report", help="report.json path")
    p.add_argument("--log", help="steps.csv path")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _NUMERIC_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (CondensationError, OSError, UnicodeDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
