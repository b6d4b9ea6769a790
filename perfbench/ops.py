"""Run one benchmark operation against ncphase and check its output.

Every check compares an error with the tolerance the library itself uses
(the `verify` gates and the acceptance tests): 1e-8 on the relative
eigen-equation residual, 1e-9 on normalizations and on closed-form versus
numeric entropies. Library functions are looked up through their modules at
call time, so `tracing.interpose` can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ncphase import cli, darboux, entropy, moments, params, starcalc, wigner

GENVALUE_TOL = 1e-8
NORM_TOL = 1e-9
ENTROPY_TOL = 1e-9
SPECTRUM_RTOL = 1e-8  # the CSV keeps 9 significant digits

# errors below double resolution count as resolution
EPS = 2.0 ** -52
MARGIN_FLOOR = -99.0

# SHA-256 of `ncphase figure --figure N --out -` at the default grids, pinned
# from the commit that added this benchmark
FIGURE_SHA256 = {
    1: "ff672d10c56439e1dca03b35fe70c285e08798e0fc211ed89348faecb16290c9",
    2: "100692942dc0d2fe853d493c2a77f14b00f66db7d9fd58a20e210e32caafc347",
    3: "6b924edf468558dfe969c1d58a1f2f8896661383c46896e24c49d05a62eb4541",
    4: "4439e1057cd785dd631c1cc217a0208ccb5b46f551d6fe32954a5b092595beb5",
    5: "6f257be306d79dd9b81e7d15d9c029f742eda6f8fbe7c65fecfb841c2410b302",
}


@dataclass
class Outcome:
    """Verdict of one operation.

    reason is None on success, else one failure class: "exception:<type>",
    "tolerance:<check>", "exit_code:<code>", "digest" or "malformed".
    margin is log10(tolerance/error) of the worst check, None when every
    check is exact. fingerprint holds the outputs that traced and untraced
    runs must reproduce bit for bit.
    """

    reason: str | None
    margin: float | None
    fingerprint: tuple
    errors: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.reason is None


def margin_digits(error: float, tolerance: float) -> float:
    if not math.isfinite(error):
        return MARGIN_FLOOR
    return max(MARGIN_FLOOR, math.log10(tolerance / max(error, EPS)))


def _judge(checks, fingerprint, errors=None, reason=None) -> Outcome:
    """Outcome from (name, error, tolerance) checks; reason pre-empts them."""
    if reason is None:
        reason = next((f"tolerance:{name}" for name, err, tol in checks
                       if not err <= tol), None)
    margin = min((margin_digits(err, tol) for _, err, tol in checks), default=None)
    return Outcome(reason, margin, fingerprint, errors or {})


def _params(op) -> params.ModelParams:
    return params.ModelParams(*op.params)


def run_eigen(op) -> Outcome:
    p = _params(op)
    i, j = op.args
    state = wigner.wigner_state(i, j, p)
    w = state.function
    residual = wigner.genvalue_residual(state, p)
    scale = float(np.abs(w.value(wigner.residual_grid(w))).max())
    norm = moments.integrate(w)
    purity = moments.integrate(w.pointwise_mul(w)) * darboux.cell_size(p)
    rel = residual / scale
    norm_err = max(abs(norm - 1.0), abs(purity - 1.0))
    return _judge(
        [("genvalue", rel, GENVALUE_TOL), ("norm", abs(norm - 1.0), NORM_TOL),
         ("purity", abs(purity - 1.0), NORM_TOL)],
        (rel, norm, purity), {"genvalue_rel": rel, "norm": norm_err})


def run_tower(op) -> Outcome:
    p = _params(op)
    i, j, keep = op.args
    state = wigner.wigner_state(i, j, p)
    norm = moments.integrate(state.function)
    marginal = moments.marginalize(state.function, keep)
    marginal_norm = moments.integrate(marginal)
    return _judge(
        [("norm", abs(norm - 1.0), NORM_TOL),
         ("marginal-norm", abs(marginal_norm - 1.0), NORM_TOL)],
        (norm, marginal_norm, len(marginal.poly)),
        {"norm": max(abs(norm - 1.0), abs(marginal_norm - 1.0))})


def _closed(kind: str, order: int, lam: float) -> float:
    if kind == "von-neumann":
        return entropy.von_neumann_entanglement(lam).value
    if kind == "renyi":
        return entropy.renyi_entanglement(order, lam).value
    return entropy.tsallis_entanglement(order, lam).value


def run_entropy(op) -> Outcome:
    p = _params(op)
    kind, order = op.args
    lam = params.derive(p).lam
    closed = _closed(kind, order, lam)
    reduced = wigner.reduce(wigner.wigner_state(0, 0, p), 1)
    if kind == "von-neumann":
        numeric = entropy.von_neumann_numeric(reduced, p).value
    elif kind == "renyi":
        numeric = entropy.renyi_numeric(reduced, order, p).value
    else:
        numeric = entropy.tsallis_numeric(reduced, order, p).value
    diff = abs(closed - numeric)
    return _judge([("closed-vs-numeric", diff, ENTROPY_TOL)], (closed, numeric),
                  {"entropy_diff": diff})


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue()


def _flags(p: tuple) -> list[str]:
    names = ("--hbar", "--mass", "--omega", "--mu", "--nu")
    return [text for name, value in zip(names, p) for text in (name, repr(value))]


# verify checks that feed the per-layer error maxima
VERIFY_ERRORS = (("genvalue-residual", "genvalue_rel"),
                 ("orthogonality-normalization", "norm"),
                 ("entropy-closed-vs-numeric", "entropy_diff"))


def run_verify(op) -> Outcome:
    code, out = _cli(["verify", *_flags(op.params)])
    report = json.loads(out)
    checks = [(c["name"], c["error"], c["tolerance"]) for c in report["checks"]]
    reason = None
    if code != cli.EXIT_OK or not report["all_passed"]:
        reason = f"exit_code:{code}"
    by_name = {name: err for name, err, _ in checks}
    errors = {key: by_name[name] for name, key in VERIFY_ERRORS if name in by_name}
    return _judge(checks, (code, out), errors, reason)


def run_figure(op) -> Outcome:
    (number,) = op.args
    code, out = _cli(["figure", "--figure", str(number), "--out", "-"])
    digest = hashlib.sha256(out.encode()).hexdigest()
    reason = None
    if code != cli.EXIT_OK:
        reason = f"exit_code:{code}"
    elif digest != FIGURE_SHA256[number]:
        reason = "digest"
    return _judge([], (code, digest), reason=reason)


def run_spectrum(op) -> Outcome:
    imax, jmax, sort = op.args
    argv = ["spectrum", *_flags(op.params), "--imax", str(imax), "--jmax", str(jmax)]
    code, out = _cli(argv + (["--sort"] if sort else []))
    if code != cli.EXIT_OK:
        return _judge([], (code, out), reason=f"exit_code:{code}")
    p = _params(op)
    lines = out.splitlines()
    try:
        rows = [(int(i), int(j), float(e)) for i, j, e in
                (line.split(",") for line in lines[1:])]
    except ValueError:
        rows = None
    wanted = {(i, j) for i in range(imax + 1) for j in range(jmax + 1)}
    energies = [e for _, _, e in rows or ()]
    if (lines[:1] != ["i,j,energy"] or rows is None
            or len(rows) != len(wanted) or {(i, j) for i, j, _ in rows} != wanted
            or (sort and energies != sorted(energies))):
        return _judge([], (code, out), reason="malformed")
    unit = p.hbar * p.omega
    worst = max(abs(e - wigner.energy_level(i, j, p) / unit)
                / abs(wigner.energy_level(i, j, p) / unit) for i, j, e in rows)
    outcome = _judge([("energy", worst, SPECTRUM_RTOL)], (code, out))
    outcome.margin = None  # the error is the CSV's 9-digit rounding, not the library's
    return outcome


def run_cli_entropy(op) -> Outcome:
    kind, order, method = op.args
    argv = ["entropy", *_flags(op.params), "--kind", kind, "--method", method]
    if kind != "von-neumann":
        argv += ["--order", str(order)]
    code, out = _cli(argv)
    if code != cli.EXIT_OK:
        return _judge([], (code, out), reason=f"exit_code:{code}")
    value = json.loads(out)["value"]
    diff = abs(value - _closed(kind, order, params.derive(_params(op)).lam))
    return _judge([("closed-form", diff, ENTROPY_TOL)], (code, out),
                  {"entropy_diff": diff})


def run_session(op) -> Outcome:
    """Commands in order; the session fails with its first failing command."""
    outcomes = [RUNNERS[cmd.kind](cmd) for cmd in op.args]
    margins = [o.margin for o in outcomes if o.margin is not None]
    errors: dict[str, float] = {}
    for o in outcomes:
        for key, err in o.errors.items():
            errors[key] = max(errors.get(key, 0.0), err)
    return Outcome(next((o.reason for o in outcomes if o.reason), None),
                   min(margins, default=None),
                   tuple(o.fingerprint for o in outcomes), errors)


RUNNERS = {
    "eigen": run_eigen,
    "tower": run_tower,
    "entropy": run_entropy,
    "verify": run_verify,
    "figure": run_figure,
    "spectrum": run_spectrum,
    "cli-entropy": run_cli_entropy,
    "session": run_session,
}


def run(op) -> Outcome:
    """Run and check one operation; an exception is a failure, not a crash."""
    try:
        return RUNNERS[op.kind](op)
    except Exception as exc:  # the loop records every failure and goes on
        return Outcome(f"exception:{type(exc).__name__}", None, (type(exc).__name__,))


# counts(result, *args, **kwargs) of a traced call
def _terms(result, *args, **kwargs):
    return {"terms_out": len(result.poly)}


def _integrate_counts(result, func):
    return {"monomials": len(func.poly), "max_degree": func.degree}


def _marginalize_counts(result, func, *args, **kwargs):
    return {"monomials_in": len(func.poly), "monomials_out": len(result.poly)}


# (owner, attribute, span name, counts) wrapped by the traced run
TRACE_TARGETS = (
    (params, "derive", "params.derive", None),
    (wigner, "wigner_state", "wigner.wigner_state",
     lambda r, *a, **k: {"terms": len(r.function.poly)}),
    (wigner, "genvalue_residual", "wigner.genvalue_residual", None),
    (wigner, "oscillator_hamiltonian", "wigner.oscillator_hamiltonian", None),
    (wigner, "residual_grid", "wigner.residual_grid", None),
    (wigner, "star_product_poly_left", "starcalc.star_product_poly", _terms),
    (wigner, "star_product_poly_right", "starcalc.star_product_poly", _terms),
    (wigner, "reduce", "wigner.reduce", None),
    (starcalc.GaussPoly, "value", "starcalc.value",
     lambda r, self, pts: {"term_points": len(self.poly) * int(np.size(r))}),
    (starcalc.GaussPoly, "pointwise_mul", "starcalc.pointwise_mul", _terms),
    (moments, "integrate", "moments.integrate", _integrate_counts),
    (moments, "marginalize", "moments.marginalize", _marginalize_counts),
    (entropy, "renyi_entanglement", "entropy.closed", None),
    (entropy, "tsallis_entanglement", "entropy.closed", None),
    (entropy, "von_neumann_entanglement", "entropy.closed", None),
    (entropy, "renyi_numeric", "entropy.numeric", None),
    (entropy, "tsallis_numeric", "entropy.numeric", None),
    (entropy, "von_neumann_numeric", "entropy.numeric", None),
    (entropy, "star_power", "starcalc.star_power",
     lambda r, g, n, *a, **k: {"steps": n - 1}),
    (entropy, "star_log_gaussian", "starcalc.star_log", None),
    (darboux, "cell_size", "darboux.cell_size", None),
    (cli, "cmd_verify", "cli.verify", None),
    (cli, "cmd_spectrum", "cli.spectrum", None),
    (cli, "cmd_entropy", "cli.entropy", None),
    (cli, "figure_csv", "cli.figure", lambda r, *a, **k: {"rows": r.count("\n") - 1}),
)
