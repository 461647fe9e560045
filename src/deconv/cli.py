"""Command line front end.

Measures travel as small text files, 1D signals as CSV, images as PGM
or raw float grids.  Every file writer starts its output with
'#'-prefixed key=value lines echoing the resolved configuration, and a
rerun with identical arguments and inputs produces identical bytes.

The argparse tree is built once per process, on the first ``main`` call,
and reused; each call picks its ``_cmd_*`` by the command's name.

The front end only parses and dispatches: each ``_cmd_*`` reads its
inputs, calls the library, computes every number it reports, and writes
its output files last, through ``io``.  The series of ``invert`` come from
``onesided.inverse``; ``deblur`` takes its series from the same call and
applies them through ``onesided.apply_on_window``.  Exit codes: 0 success (for
verify: inverse confirmed), 1 verify found a residual above tolerance,
2 usage trouble (such as a run that would write a file it reads, refused
before any command runs) or an unreadable file, and otherwise the
``exit_code`` of the ``DeconvError`` that refused the run (2 parse error,
3 dimension or mode mismatch, 4 violated precondition or a float result
past float64, 5 insufficient truncation margin).  A warning the library
raises during a command, such as Van Cittert's at tv(mu) >= 1, is printed as
one ``warning: <message>`` line on stderr, whatever the warnings filters
say, and changes no exit code or output.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import io as dio
from .errors import DeconvError
from .gaussian import (
    DEFAULT_RECIPROCAL_FLOOR,
    blur,
    naive_deblur,
    noise_blowup_experiment,
    two_bump_signal,
)
from .grids import EXACT, FLOAT, GridSignal
from .measures import is_inverse
from .neumann import (
    NeumannConfig,
    factor_at_origin,
    neumann,
    three_point_kernel,
    van_cittert_deblur,
)
from .onesided import (
    Side,
    apply_on_window,
    binomial_inverse,
    binomial_kernel,
    growth_table,
    half_pair_kernel,
    inverse,
    perturbation_response,
)

_SPECTRAL_METHODS = {
    "reciprocal": "discrete-reciprocal",
    "analytic": "analytic-amplifier",
}


# --- small shared helpers ---------------------------------------------------


def _window_arg(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"window must be 'lo:hi', got {text!r}")
    try:
        bounds = (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window bounds must be integers, got {text!r}") from None
    if bounds[0] > bounds[1]:
        raise argparse.ArgumentTypeError(f"window {text!r} has lo > hi")
    return bounds


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _echo(settings: dict) -> tuple[str, ...]:
    return tuple(f"{k}={_fmt(v)}" for k, v in sorted(settings.items()))


def _file_key(path):
    """Device and inode of an existing file, else the resolved path that will name it."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _overwrite(args) -> str | None:
    """Why the run would write a file it reads (an input or its sidecar) or
    one file twice; None if it would not."""
    reads = [getattr(args, name, None) for name in ("lhs", "rhs", "kernel", "input", "reference")]
    owner = {_file_key(path): f"would overwrite {path}, which the run reads"
             for read in reads if read for path in dio.saved_files(read)}
    writes = [(f"-o {args.output}", path) for path in dio.saved_files(args.output)]
    if getattr(args, "metrics", None):
        writes.append((f"--metrics {args.metrics}", args.metrics))
    for flag, path in writes:
        key = _file_key(path)
        if key in owner:
            return f"{flag} {owner[key]}"
        owner[key] = f"is a file that {flag} writes"
    return None


def _usage(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


# --- subcommands ------------------------------------------------------------


def _cmd_convolve(args) -> int:
    lhs = dio.read_measure(args.lhs, args.mode)
    rhs = dio.read_measure(args.rhs, args.mode)
    out = lhs.convolve(rhs)
    tv = out.total_variation()  # before writing: a float tv past float64 is refused
    header = _echo({
        "command": "convolve", "mode": args.mode,
        "lhs": args.lhs, "rhs": args.rhs,
    })
    dio.write_measure(args.output, out, header)
    print(f"atoms={len(out)} tv={dio.format_weight(tv)}")
    return 0


def _cmd_invert(args) -> int:
    mode = args.mode
    kernel = dio.read_measure(args.kernel, mode)
    settings = {
        "command": "invert", "method": args.method, "mode": mode,
        "kernel": args.kernel,
    }
    if args.method == "neumann":
        if args.N is not None:
            config = NeumannConfig(order=args.N, max_order=max(args.max_order, args.N))
            settings.update(order=args.N, max_order=config.max_order)
        else:
            tol = dio.parse_weight(args.tol, mode)
            config = NeumannConfig(residual_target=tol, max_order=args.max_order)
            settings.update(residual_target=tol, max_order=args.max_order)
        result, report = neumann(kernel, config)
        summary = (f"method=neumann order={report.order}"
                   f" norm={dio.format_weight(report.mu_norm)}"
                   f" bound={dio.format_weight(report.bound)}")
    else:
        if args.N is None:
            return _usage(f"--N is required for method {args.method}")
        settings.update(N=args.N)
        if args.method == "onesided":
            settings.update(side=args.side)
        series = inverse(kernel, args.method, args.N, Side(args.side))
        result = series.measure
        summary = (f"method={args.method} halfwidth={series.halfwidth}"
                   f" boundary_distance={series.boundary_distance()}")
    dio.write_measure(args.output, result, _echo(settings))
    print(summary)
    return 0


def _cmd_blur(args) -> int:
    signal = dio.load_signal(args.input, FLOAT)
    out = blur(signal)
    summary = f"shape={'x'.join(str(n) for n in out.shape)} mass={repr(out.mass())}"
    dio.save_signal(args.output, out, _echo({"command": "blur", "input": args.input}))
    print(summary)
    return 0


def _cmd_deblur(args) -> int:
    if args.metrics and not args.reference:
        return _usage("--metrics needs --reference to compare against")
    method = args.method
    settings = {"command": "deblur", "method": method, "input": args.input}
    if method == "vancittert":
        if args.a is None:
            return _usage("--a is required for method vancittert")
        g = dio.read_signal_csv(args.input, args.mode)
        kernel = three_point_kernel(dio.parse_weight(args.a, args.mode), mode=args.mode)
        center, mu = factor_at_origin(kernel)
        iterates = van_cittert_deblur(g.scaled(1 / center), mu, args.iterations)
        out = iterates[-1]
        settings.update(a=args.a, iterations=args.iterations, mode=args.mode)
        params = f"a={args.a};iterations={args.iterations}"
        summary = f"method=vancittert iterations={args.iterations} a={args.a}"
    elif method in ("binomial", "halfpair"):
        if args.N is None:
            return _usage(f"--N is required for method {method}")
        if args.window is None:
            return _usage(f"--window is required for method {method}")
        lo, hi = args.window
        g = dio.read_signal_csv(args.input, args.mode, rows=(lo - args.N, hi + args.N))
        kernel = binomial_kernel(mode=args.mode) if method == "binomial" \
            else half_pair_kernel(mode=args.mode)
        out = apply_on_window(g, inverse(kernel, method, args.N), args.window)
        settings.update(N=args.N, window=f"{lo}:{hi}", mode=args.mode)
        params = f"N={args.N};window={lo}:{hi}"
        summary = f"method={method} halfwidth={args.N} window={lo}:{hi}"
    elif method in _SPECTRAL_METHODS:
        g = dio.load_signal(args.input, FLOAT)
        out, diag = naive_deblur(
            g, _SPECTRAL_METHODS[method],
            band_limit=args.band_limit, reciprocal_floor=args.floor)
        settings.update(band_limit=args.band_limit)
        params = f"band_limit={_fmt(args.band_limit)}"
        if method == "reciprocal":
            settings.update(floor=args.floor)
            params += f";floor={_fmt(args.floor)}"
        summary = (f"method={method} applied_bins={diag.applied_bins}"
                   f" suppressed_bins={diag.suppressed_bins}")
    else:  # pragma: no cover - argparse restricts choices
        return _usage(f"unknown method {method}")
    if args.reference:
        diff = out - dio.load_signal(args.reference, out.mode)
        max_err = diff.max_abs()
        l2_err = diff.l2_norm()
        summary += f" max_err={repr(max_err)} l2_err={repr(l2_err)}"
    dio.save_signal(args.output, out, _echo(settings))
    if args.metrics:
        settings.update(reference=args.reference)
        dio.write_text(args.metrics, _echo(settings), [
            "method,params,max_err,l2_err", f"{method},{params},{max_err!r},{l2_err!r}"])
    print(summary)
    return 0


def _cmd_experiment(args) -> int:
    name = args.name
    settings = {"command": "experiment", "name": name}
    if name != "noise-gaussian":
        if args.n_step < 1 or args.n_from > args.n_to:
            return _usage("the N ladder needs --n-step >= 1 and --n-from <= --n-to")
        ns = range(args.n_from, args.n_to + 1, args.n_step)
    if name == "growth":
        settings.update(n_from=args.n_from, n_to=args.n_to, n_step=args.n_step)
        rows = [(str(n), str(peak)) for n, peak in growth_table(ns)]
        columns = ("N", "max_abs_coefficient")
    elif name == "noise-lateral":
        if len(args.sigma or ()) > 1:
            return _usage("experiment noise-lateral takes one --sigma")
        sigma = (args.sigma or ["0.001"])[0]
        eps = dio.parse_weight(sigma, EXACT)
        lo, hi = args.window or (-3, 3)
        rng = np.random.default_rng(args.seed)
        draws = rng.integers(-9, 10, size=hi - lo + 1)
        f = GridSignal.from_lattice_dict(
            {(i,): int(v) for i, v in zip(range(lo, hi + 1), draws)},
            dimension=1, mode=EXACT)
        settings.update(n_from=args.n_from, n_to=args.n_to, n_step=args.n_step,
                        seed=args.seed, sigma=sigma, window=f"{lo}:{hi}")
        kernel = binomial_kernel()
        rows = []
        for n in ns:
            rep = perturbation_response(f, kernel, binomial_inverse(n), eps)
            rows.append((str(n), str(rep.margin),
                         dio.format_weight(rep.max_deviation),
                         dio.format_weight(rep.predicted_deviation)))
        columns = ("N", "margin", "max_dev", "predicted_dev")
    elif name == "noise-gaussian":
        sigmas = [dio.parse_weight(s, FLOAT) for s in (args.sigma or ["1e-12"])]
        bands = args.band_limit or [4.0, 8.0]
        settings.update(seed=args.seed, sigma=sigmas, band_limit=bands)
        f = two_bump_signal()
        rows = []
        for band in bands:
            for sigma in sigmas:
                _, chunk = noise_blowup_experiment(f, sigma, args.seed, band)
                for row in chunk:
                    rows.append((repr(row["band_limit"]), repr(row["sigma"]),
                                 _fmt(row["predicted_gain_log"]),
                                 repr(row["observed_error"]), repr(row["ratio"])))
        columns = ("band_limit", "sigma", "predicted_gain_log",
                   "observed_error", "ratio")
    else:  # pragma: no cover - argparse restricts choices
        return _usage(f"unknown experiment {name}")
    dio.write_text(args.output, _echo(settings),
                   [",".join(columns)] + [",".join(cells) for cells in rows])
    print(f"experiment={name} rows={len(rows)} output={args.output}")
    return 0


def _cmd_verify(args) -> int:
    mode = args.mode
    kernel = dio.read_measure(args.kernel, mode)
    candidate = dio.read_measure(args.inverse, mode)
    tol = None if args.tol is None else dio.parse_weight(args.tol, mode)
    report = is_inverse(kernel, candidate, args.window, tol)
    print(f"ok={str(report.ok).lower()}"
          f" max_inside={dio.format_weight(report.max_inside)}"
          f" residual_atoms={len(report.residual)}"
          f" window={report.window}")
    return 0 if report.ok else 1


# --- parser and dispatch ----------------------------------------------------

# lets every token that starts "-" and a digit or "." ("-8:8", "-3.5:3", "-3:x")
# pass as a value for its option to check; no deconv option looks like that
_NEGATIVE_TOKEN = re.compile(r"^-[\d.]")


def _new_command(sub, name: str, **kwargs) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, **kwargs)
    parser._negative_number_matcher = _NEGATIVE_TOKEN
    return parser


def _add_mode(parser) -> None:
    parser.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT,
                        help="arithmetic for weights (default exact rationals)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deconv",
        description="Deconvolution on the integer lattice and against the "
                    "gaussian density: exact truncated-series inverses, "
                    "iterative deblurring, and spectral experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _new_command(sub, "convolve", help="convolve two measure files")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("-o", "--output", required=True)
    _add_mode(p)

    p = _new_command(sub, "invert", help="write a truncated inverse of a kernel")
    p.add_argument("kernel")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--method", required=True,
                   choices=("neumann", "onesided", "binomial", "halfpair"))
    p.add_argument("--N", type=int, default=None,
                   help="series order / halfwidth / term count")
    p.add_argument("--tol", default="1e-9",
                   help="residual bound target for neumann (default 1e-9)")
    p.add_argument("--max-order", type=int, default=256)
    p.add_argument("--side", choices=("right", "left"), default="right",
                   help="support side for the one-sided series")
    _add_mode(p)

    p = _new_command(sub, "blur", help="gaussian-blur a float signal or image")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = _new_command(sub, "deblur", help="invert a blur by series, iteration, "
                                      "or spectral division")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--method", required=True,
                   choices=("vancittert", "binomial", "halfpair",
                            "reciprocal", "analytic"))
    p.add_argument("--a", default=None,
                   help="center weight of the three-point kernel")
    p.add_argument("--iterations", type=int, default=8)
    p.add_argument("--N", type=int, default=None, help="series halfwidth")
    p.add_argument("--window", type=_window_arg, default=None,
                   help="lattice window lo:hi holding the true support")
    p.add_argument("--band-limit", type=float, default=None)
    p.add_argument("--floor", type=float, default=DEFAULT_RECIPROCAL_FLOOR,
                   help="smallest kernel spectrum magnitude still divided")
    p.add_argument("--reference", default=None,
                   help="clean signal to score the result against")
    p.add_argument("--metrics", default=None,
                   help="write a method,params,max_err,l2_err CSV here")
    _add_mode(p)

    p = _new_command(sub, "experiment", help="reproduce a numbered study as CSV")
    p.add_argument("name", choices=("growth", "noise-lateral", "noise-gaussian"))
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--n-from", type=int, default=10)
    p.add_argument("--n-to", type=int, default=100)
    p.add_argument("--n-step", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", action="append", default=None,
                   help="noise level; repeatable for noise-gaussian")
    p.add_argument("--band-limit", type=float, action="append", default=None,
                   help="frequency cutoff; repeatable for noise-gaussian")
    p.add_argument("--window", type=_window_arg, default=None,
                   help="support window for noise-lateral (default -3:3)")

    p = _new_command(sub, "verify", help="check one measure inverts another "
                                      "on a window")
    p.add_argument("kernel")
    p.add_argument("inverse")
    p.add_argument("--window", type=_window_arg, required=True)
    p.add_argument("--tol", default=None)
    _add_mode(p)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        if hasattr(args, "output") and (clash := _overwrite(args)):  # verify writes nothing
            return _usage(clash)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            try:
                return globals()[f"_cmd_{args.command}"](args)
            finally:
                for warning in caught:
                    print(f"warning: {warning.message}", file=sys.stderr)
    except DeconvError as exc:
        return _fail(exc.exit_code, exc)
    except OSError as exc:
        return _fail(2, exc)
    except (ValueError, MemoryError) as exc:
        return _fail(4, exc)


def _fail(code: int, exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
