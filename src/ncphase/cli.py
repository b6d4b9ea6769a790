"""Command-line surface: entropy queries, spectrum tables, figure data, verification.

Exit codes: 0 success, 1 verification failure, 2 invalid physics parameters
or a file that cannot be read or written, 3 unsupported request. `main` alone
maps errors to codes: an OSError from a command is one `error:` line on
stderr and exit 2, and a ValueError, ArithmeticError or MemoryError is one
such line and exit 3, so `verify` exits 3 at accepted points where a step
leaves double range (README "Known limits"), and a figure grid too large to
allocate is refused the same way. All output is plain text (JSON or CSV); CSV is
deterministic, 9 significant digits, newline-terminated rows.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import entropy as ent
from . import moments
from .darboux import build_map, cell_size
from .params import (_PARAM_KEYS, ModelParams, _read_params, derive, lambda_from_theta,
                     lambda_from_uv)
from .starcalc import PhaseVariables, gaussian_star, grid_values, star_exp, star_log_gaussian
from .wigner import (
    MAX_INDEX,
    _genvalue_residuals_and_scales,
    _residual_axes,
    energy_level,
    hamiltonians_pm,
    phase_variables,
    reduce,
    wigner_state,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_UNSUPPORTED = 3


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None,
                        help="parameter file with key = value lines")
    parser.add_argument("--hbar", type=float, default=None)
    parser.add_argument("--mass", type=float, default=None)
    parser.add_argument("--omega", type=float, default=None)
    parser.add_argument("--mu", type=float, default=None)
    parser.add_argument("--nu", type=float, default=None)


def _params_from_args(args) -> ModelParams:
    # the flags lie over the file's values, and ModelParams checks the point
    # they make together; a key set by neither takes its default
    fields = _read_params(args.config) if args.config else {}
    fields.update((k, getattr(args, k)) for k in _PARAM_KEYS if getattr(args, k) is not None)
    params = ModelParams(**fields)
    if params.near_singular:
        print("warning: mu*nu is within 1e-9 of the hbar^2 singularity",
              file=sys.stderr)
    return params


def _integer_order(raw: str) -> int:
    value = float(raw)
    if not value.is_integer():
        raise ValueError(f"unsupported order {raw}")
    return int(raw) if raw.strip().isdigit() else int(value)  # exact past 2^53


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, newline="")


def cmd_entropy(args) -> int:
    params, dq = args.params, derive(args.params)
    kind = args.kind
    method = args.method
    if kind == "von-neumann":
        if method == "numeric":
            reduced = reduce(wigner_state(0, 0, params), 1)
            result = ent.von_neumann_numeric(reduced, params)
        else:
            result = ent.von_neumann_entanglement(dq.lam)
    else:
        if args.order is None:
            raise ValueError("--order is required for renyi and tsallis")
        order = _integer_order(args.order)
        if method == "numeric":
            reduced = reduce(wigner_state(0, 0, params), 1)
            fn = ent.renyi_numeric if kind == "renyi" else ent.tsallis_numeric
            result = fn(reduced, order, params)
        else:
            fn = ent.renyi_entanglement if kind == "renyi" else ent.tsallis_entanglement
            result = fn(order, dq.lam)
    print(json.dumps({
        "kind": result.kind,
        "order": result.order,
        "lambda": result.lam,
        "value": result.value,
        "method": result.method,
    }))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    params = args.params
    if not (0 <= args.imax <= MAX_INDEX and 0 <= args.jmax <= MAX_INDEX):
        raise ValueError(f"indices must lie in 0..{MAX_INDEX}")

    scale = params.hbar * params.omega if args.units == "natural" else 1.0
    rows = []
    for i in range(args.imax + 1):
        for j in range(args.jmax + 1):
            rows.append((i, j, energy_level(i, j, params) / scale))
    if args.sort:
        rows.sort(key=lambda r: (r[2], r[0], r[1]))
    lines = ["i,j,energy"]
    lines += [f"{i},{j},{_fmt(e)}" for i, j, e in rows]
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _surface_rows(header: str, a_vals, b_vals, lam_of, mask_of) -> str:
    a, b = np.meshgrid(a_vals, b_vals, indexing="ij")
    mask = mask_of(a, b)
    e1 = np.zeros(a.shape)  # lam only at valid cells: elsewhere it can divide by 0
    e1[mask] = ent._von_neumann_of(lam_of(a[mask], b[mask]))
    b_text = [_fmt(y) for y in b_vals]
    lines = [header]
    for x, row_mask, row_e1 in zip(a_vals, mask.tolist(), e1.tolist()):
        x_text = _fmt(x)
        lines += [f"{x_text},{y_text},{e:.9g}" if valid else f"{x_text},{y_text},"
                  for y_text, valid, e in zip(b_text, row_mask, row_e1)]
    return "\n".join(lines) + "\n"


def figure_csv(figure: int, grid: int | None = None) -> str:
    """Deterministic CSV data behind each published surface or curve."""
    if grid is not None and grid < 1:
        raise ValueError("grid must be a positive integer")
    if figure == 1:
        n = 101 if grid is None else grid
        axis = np.linspace(-5.0, 5.0, n)
        return _surface_rows(
            "a,b,E1", axis, axis, lam_of=lambda_from_uv,
            mask_of=lambda u, v: (-1.0 < u * v) & (u * v < 1.0),
        )
    if figure == 2:
        n = 101 if grid is None else grid
        d2_axis = np.linspace(0.0, 10.0, n)
        th_axis = np.linspace(-1.0, 1.0, n)
        return _surface_rows(
            "a,b,E1", d2_axis, th_axis, lam_of=lambda_from_theta,
            mask_of=lambda d2, th: (-1.0 < th) & (th < 1.0),
        )
    if figure in (3, 5):
        n = 401 if grid is None else grid
        lam = np.linspace(0.578, 1.0, n)
        e1 = ent._von_neumann_of(lam)
        if figure == 3:
            cols = [e1] + [ent._renyi_of(a, lam) for a in (2, 3, 4)]
            header = "lambda,E1,E2,E3,E4"
        else:
            cols = [e1] + [ent._tsallis_of(q, lam) for q in (2, 3, 4)]
            header = "lambda,Ep1,Ep2,Ep3,Ep4"
        lines = [header]
        for idx, lv in enumerate(lam):
            vals = ",".join(_fmt(c[idx]) for c in cols)
            lines.append(f"{_fmt(lv)},{vals}")
        return "\n".join(lines) + "\n"
    if figure == 4:
        n = 401 if grid is None else grid
        u_axis = np.linspace(-10.0, 10.0, n)
        lines = ["u,E1"]
        for u in u_axis:
            lines.append(f"{_fmt(u)},{_fmt(ent.e1_nu_zero(float(u)))}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown figure id {figure}")


def cmd_figure(args) -> int:
    _write_text(args.out or f"fig{args.figure}.csv", figure_csv(args.figure, args.grid))
    return EXIT_OK


def _verify_checks(params: ModelParams, perturb_energy: float) -> list[dict]:
    checks = []

    def record(name: str, errors, tolerance: float) -> None:
        error = float(np.max(errors))  # NaN propagates, and fails the check
        checks.append({
            "name": name,
            "error": error,
            "tolerance": tolerance,
            "passed": error <= tolerance,
        })

    dq = derive(params)

    # derived scalars: identities between equivalent forms
    err = abs(dq.h_plus * dq.h_minus - (params.hbar**2 - params.mu * params.nu))
    err /= params.hbar**2
    record("derived-scalars", err, 1e-12)

    states = {(i, j): wigner_state(i, j, params) for i in range(2) for j in range(2)}

    # genvalue equation, indices <= 1, optionally with an injected energy fault
    energies = [state.energy * (1.0 + perturb_energy) for state in states.values()]
    record("genvalue-residual",
           [res / scale for res, scale in _genvalue_residuals_and_scales(
               list(states.values()), params, energies)], 1e-8)

    # orthogonality and normalization, indices <= 1
    cell = cell_size(params)
    funcs = [state.function for state in states.values()]
    overlaps = moments.gram(funcs, funcs)
    record("orthogonality-normalization",
           np.append(np.abs(overlaps - np.eye(len(funcs)) / cell) * cell,
                     [abs(moments.integrate(f) - 1.0) for f in funcs]), 1e-9)

    # reduced state: closed form vs exact partial integration, on one grid;
    # one call each, since their exponents differ in the last bits
    ground = states[(0, 0)]
    reduced = reduce(ground, 1)
    closed = reduced.function
    marg = moments.marginalize(ground.function, keep=1)
    axes = _residual_axes(closed)
    closed_vals, marg_vals = (grid_values([f], axes)[0] for f in (closed, marg))
    record("reduced-marginal",
           np.abs(closed_vals - marg_vals) / np.abs(closed_vals).max(), 1e-10)

    # star-exponential group law on H+; matrix entry errors, here and below,
    # are relative to the largest |entry| of their reference (scaling as hbar)
    h_plus, h_minus = hamiltonians_pm(params)
    t1, t2 = 0.125 / abs(h_plus.k), -0.3 / abs(h_plus.k)
    lhs = gaussian_star(star_exp(h_plus, t1), star_exp(h_plus, t2), forms=[h_plus])
    rhs = star_exp(h_plus, t1 + t2)
    err = abs(lhs.exponent - rhs.exponent) / abs(rhs.exponent).max()
    record("star-exp-group-law", np.append(abs(lhs.prefactor - rhs.prefactor), err), 1e-10)

    # star-logarithm round trip: ln_star(exp_star(H t)) = t H with zero constant
    t = -0.4 / abs(h_plus.k)
    g = star_exp(h_plus, t)
    const, quad = star_log_gaussian(g, form=h_plus)
    want = t * h_plus.matrix
    err = abs(quad.prefactor * _quad_matrix(quad) - want) / abs(want).max()
    record("star-log-round-trip", np.append(abs(const), err), 1e-10)

    # closed-form entropy vs star-power numeric route
    record("entropy-closed-vs-numeric",
           [abs(ent.renyi_entanglement(alpha, dq.lam).value
                - ent.renyi_numeric(reduced, alpha, params).value)
            for alpha in (2, 3, 4)], 1e-9)

    # coordinate-map identities
    m = build_map(params)
    want = phase_variables(params).deformation_matrix()
    canonical = PhaseVariables(4, hbar=params.hbar).deformation_matrix()
    err = abs(m @ canonical @ m.T - want) / abs(want).max()
    det_err = abs(np.linalg.det(m) - (1.0 - params.mu * params.nu / params.hbar**2))
    cell_err = abs(cell - (2.0 * math.pi * params.hbar) ** 2 * np.linalg.det(m))
    record("darboux-identities", np.append(err, [det_err, cell_err / cell]), 1e-12)

    # trace property on a two-mode Gaussian pair (full rank, integrable)
    modes = [h_plus, h_minus]
    g1 = star_exp(h_plus, -0.2 / abs(h_plus.k)).pointwise_mul(
        star_exp(h_minus, -0.5 / abs(h_minus.k)))
    g2 = star_exp(h_plus, -0.35 / abs(h_plus.k)).pointwise_mul(
        star_exp(h_minus, -0.15 / abs(h_minus.k)))
    lhs_v = moments.integrate(gaussian_star(g1, g2, forms=modes))
    rhs_v = float(moments.gram([g1], [g2])[0, 0])
    record("trace-property", abs(lhs_v - rhs_v) / abs(rhs_v), 1e-9)

    return checks


def _quad_matrix(quad) -> np.ndarray:
    """Symmetric matrix of a quadratic polynomial GaussPoly (zero exponent)."""
    d = quad.variables.dimension
    S = np.zeros((d, d))
    for mono, c in zip(quad.exps.tolist(), quad.coeffs.real.tolist()):
        idx = [axis for axis, p in enumerate(mono) for _ in range(p)]
        if len(idx) != 2:
            raise ValueError("not a homogeneous quadratic")
        i, j = idx
        if i == j:
            S[i, i] += c
        else:
            S[i, j] += c / 2.0
            S[j, i] += c / 2.0
    return S


def cmd_verify(args) -> int:
    params = args.params
    checks = _verify_checks(params, args.perturb_energy)
    all_passed = all(c["passed"] for c in checks)
    print(json.dumps({
        "params": {k: getattr(params, k) for k in _PARAM_KEYS},
        "checks": checks,
        "all_passed": all_passed,
    }, indent=2))
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; it binds no command function, so `main`
    calls whatever `cmd_*` the module holds when it runs."""
    parser = argparse.ArgumentParser(
        prog="ncphase",
        description="Entanglement entropy of harmonic oscillators on a "
                    "deformed phase space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ent = sub.add_parser("entropy", help="single entropy value as JSON")
    _add_param_flags(p_ent)
    p_ent.add_argument("--kind", choices=("renyi", "tsallis", "von-neumann"),
                       default="renyi")
    p_ent.add_argument("--order", type=str, default=None,
                       help="integer order (>= 2) for renyi/tsallis")
    p_ent.add_argument("--method", choices=("closed", "numeric"), default="closed")

    p_spec = sub.add_parser("spectrum", help="energy table as CSV")
    _add_param_flags(p_spec)
    p_spec.add_argument("--imax", type=int, default=3)
    p_spec.add_argument("--jmax", type=int, default=3)
    p_spec.add_argument("--units", choices=("natural", "si"), default="natural")
    p_spec.add_argument("--sort", action="store_true")
    p_spec.add_argument("--out", type=str, default=None)

    p_fig = sub.add_parser("figure", help="regenerate figure data as CSV")
    p_fig.add_argument("--figure", type=int, required=True)
    p_fig.add_argument("--out", type=str, default=None)
    p_fig.add_argument("--grid", type=int, default=None,
                       help="points per axis (surfaces) or per curve")

    p_ver = sub.add_parser("verify", help="run the invariant suite, JSON report")
    _add_param_flags(p_ver)
    p_ver.add_argument("--perturb-energy", type=float, default=0.0,
                       help="test-only fault injection for the genvalue check")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "hbar"):  # a command with parameter flags
        try:
            args.params = _params_from_args(args)
        except (OSError, ValueError) as exc:  # OSError: an unreadable --config
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_PARAMS
    command = {"entropy": cmd_entropy, "spectrum": cmd_spectrum,
               "figure": cmd_figure, "verify": cmd_verify}[args.command]
    try:
        return command(args)
    except (ValueError, ArithmeticError, MemoryError) as exc:  # a request refused
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except OSError as exc:  # an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
