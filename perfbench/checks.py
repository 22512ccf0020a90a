"""Correctness checks for the benchmark's workloads.

Every reference here is computed by the benchmark itself: the scalar
conditioning recursion of the noiseless homogeneous run, the closed-form
conditional variance re-derived from its Riccati equation, the 2x2
eigenvalue formula, the collective-mixing factor of a spread of couplings,
and the law of total variance.  Nothing is imported from
``squeezesim.analytic`` or the test suite, so a fault shared by the engine
and its own closed forms still shows.

Each check raises ``CheckFailed`` with a message naming what was off.
Variances are physical (coherent state = 1/2), as in the program's CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

#: Operating point of the figure presets: cesium D1 probing, angular
#: detuning 2*pi*10 GHz (collective kappa^2, decay rate, absorption).
KAPPA_SQ = 1.83e6
ETA = 1.7577
EPSILON = 0.028
VAR0 = 0.5


class CheckFailed(Exception):
    """An output of the program disagrees with its independent reference."""


# ---------------------------------------------------------------------------
# Independent references


def noiseless_recursion(kappa_sq: float, tau: float, n_steps: int,
                        sample_every: int, var0: float = VAR0) -> np.ndarray:
    """Sampled conditional variance of the noiseless homogeneous run.

    One detected beam segment of coupling k^2 = kappa^2 tau maps the
    probed variance exactly as V <- V / (1 + 2 k^2 V); samples are taken
    at step 0 and every ``sample_every`` steps.
    """
    k2 = kappa_sq * tau
    v = var0
    out = [v]
    for step in range(1, n_steps + 1):
        v = v / (1.0 + 2.0 * k2 * v)
        if step % sample_every == 0:
            out.append(v)
    return np.array(out)


def conditional_variance(t, kappa_sq: float = KAPPA_SQ, eta: float = ETA,
                         epsilon: float = EPSILON, var0: float = VAR0):
    """Closed-form conditional variance of the probed collective momentum.

    In the continuum limit the variance obeys the Riccati equation
        dV/dt = -eta V + eta e^{eta t} - 2 k e^{-eta t} V^2,
    with k = kappa^2 (1 - epsilon) the coupling left after absorption; the
    coupling shrinks as e^{-eta t} with the mean spin and the noise floor
    grows as e^{eta t}.  With V = e^{eta t} u the coefficients become
    constant, du/dt = eta - 2 eta u - 2 k u^2, whose roots are
    u_pm = -r +- h with r = eta / 2k, h = sqrt(r^2 + r), so
        (u - u_+) / (u - u_-) = C exp(-4 k h t).
    """
    t = np.asarray(t, dtype=float)
    k = kappa_sq * (1.0 - epsilon)
    if eta == 0.0:
        return 1.0 / (2.0 * k * t + 1.0 / var0)
    r = eta / (2.0 * k)
    h = math.sqrt(r * r + r)
    u_plus, u_minus = h - r, -h - r
    c = (var0 - u_plus) / (var0 - u_minus) * np.exp(-4.0 * k * h * t)
    u = (u_plus - u_minus * c) / (1.0 - c)
    return np.exp(eta * t) * u


def min_eig_2x2(cov: np.ndarray) -> float:
    """Smallest eigenvalue of the atomic 2x2 block, as a physical variance."""
    a, b, d = float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1])
    return ((a + d) / 2.0 - math.hypot((a - d) / 2.0, b)) / 2.0


def grid_kappas(kappa0_sq: float, delta: float, n: int) -> np.ndarray:
    """Per-slice couplings of an evenly spread thin sample.

    Squared couplings are spaced evenly over kappa0^2 (1 -+ delta) and
    rescaled to sum to kappa0^2, the collective coupling.
    """
    raw = kappa0_sq * (1.0 + delta * np.linspace(-1.0, 1.0, n))
    return np.sqrt(raw * (kappa0_sq / float(np.sum(raw))))


def mixing_factor(kappas: np.ndarray) -> float:
    """Overlap a of the uniform collective momentum with the probed one.

    P = sum p_i / sqrt(n) splits as a P_eff + b P_perp with
    a = (sum kappa_i / sqrt(n)) / sqrt(sum kappa_i^2); the orthogonal part
    stays coherent, so Var(P) = a^2 Var(P_eff) + (1 - a^2) / 2.
    """
    k = np.asarray(kappas, dtype=float)
    return float(np.sum(k)) / math.sqrt(len(k)) / math.sqrt(float(np.sum(k * k)))


def expected_rows(t_end: float, tau: float, sample_every: int) -> int:
    """Rows of a run of round(t_end / tau) steps: floor(N / every) + 1."""
    return int(round(t_end / tau)) // sample_every + 1


# ---------------------------------------------------------------------------
# Reading outputs


def read_csv(path: Path) -> dict:
    """Columns of a CSV written by the program, parsed to float arrays."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise CheckFailed(f"{path.name}: empty file")
    header, body = rows[0], rows[1:]
    try:
        data = np.array([[float(x) for x in r] for r in body], dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: unparsable value ({exc})") from None
    if body and data.shape[1] != len(header):
        raise CheckFailed(f"{path.name}: ragged rows")
    data = data.reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def read_manifest(path: Path) -> dict:
    if not path.is_file():
        raise CheckFailed(f"manifest {path.name} missing")
    return json.loads(path.read_text())


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Checks


def check_exit(rc) -> None:
    if rc != 0:
        raise CheckFailed(f"CLI exit code {rc}")


def check_output_file(out_dir: Path, entry: dict, n_rows: int) -> dict:
    """A manifest entry's CSV: digest matches, row count as expected.

    Returns the parsed columns.
    """
    path = Path(out_dir) / entry["path"]
    if not path.is_file():
        raise CheckFailed(f"{entry['path']} listed in manifest but missing")
    digest = sha256_file(path)
    if digest != entry["sha256"]:
        raise CheckFailed(f"{path.name}: sha256 {digest[:12]} != manifest "
                          f"{entry['sha256'][:12]}")
    cols = read_csv(path)
    check_rows(path.name, len(cols["t_seconds"]), n_rows)
    if entry.get("rows") != n_rows:
        raise CheckFailed(f"{path.name}: manifest says {entry.get('rows')} rows, "
                          f"expected {n_rows}")
    return cols


def check_rows(name: str, got: int, want: int) -> None:
    if got != want:
        raise CheckFailed(f"{name}: {got} rows, expected {want}")


def check_times(name: str, times: np.ndarray, tau: float,
                sample_every: int) -> None:
    """Sample times sit at multiples of sample_every * tau."""
    ref = np.arange(len(times)) * sample_every * tau
    err = np.abs(times - ref)
    if np.any(err > 1e-9 * np.maximum(ref, tau)):
        raise CheckFailed(f"{name}: sample times off the step grid "
                          f"(max error {float(err.max()):.3e} s)")


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        raise CheckFailed(f"shape {got.shape} != reference {ref.shape}")
    if not np.all(np.isfinite(got)):
        raise CheckFailed("non-finite values")
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


def check_close(name: str, got, ref, rtol: float) -> None:
    err = _rel_err(got, ref)
    if not err <= rtol:
        raise CheckFailed(f"{name}: max relative error {err:.3e} > {rtol:g}")


def check_noiseless_curve(name: str, var_p: np.ndarray, kappa_sq: float,
                          tau: float, n_steps: int, sample_every: int) -> None:
    """Noiseless homogeneous column equals the scalar recursion to round-off."""
    ref = noiseless_recursion(kappa_sq, tau, n_steps, sample_every)
    check_close(name, var_p, ref, 1e-12)


def check_ordering(min_eig: np.ndarray, var_p_eff: np.ndarray) -> None:
    """The smallest eigenvalue bounds every collective variance from below."""
    over = np.asarray(min_eig) - np.asarray(var_p_eff) * (1.0 + 1e-12)
    if np.any(over > 0.0):
        i = int(np.argmax(over))
        raise CheckFailed(f"min_eig_var > var_P_eff at row {i} "
                          f"({min_eig[i]!r} > {var_p_eff[i]!r})")


def check_strictly_increasing(name: str, values) -> None:
    v = np.asarray(values, dtype=float)
    if not np.all(np.diff(v) > 0.0):
        raise CheckFailed(f"{name}: not strictly increasing: {v.tolist()}")


def check_bitwise_equal(name: str, got: np.ndarray, ref: np.ndarray) -> None:
    if not np.array_equal(got, ref):
        raise CheckFailed(f"{name}: differs from the first seed's column")


def check_total_variance(means: np.ndarray, var_cond: float,
                         var_uncond: float, n_se: float = 4.0) -> str:
    """Var(conditional means) + conditional variance = prior variance.

    The standard error is that of a Gaussian sample variance of the
    between-trajectory spread, (var_uncond - var_cond) sqrt(2 / (N - 1)).
    Returns a one-line summary.
    """
    n = len(means)
    if n < 2:
        raise CheckFailed("law of total variance needs at least 2 trajectories")
    sample_var = float(np.var(means, ddof=1))
    se = (var_uncond - var_cond) * math.sqrt(2.0 / (n - 1))
    gap = sample_var + var_cond - var_uncond
    summary = (f"Var(means) {sample_var:.5f} + Var_cond {var_cond:.5f} = "
               f"{sample_var + var_cond:.5f} vs {var_uncond:.5f} over {n} "
               f"trajectories ({gap / se:+.2f} SE)")
    if not abs(gap) < n_se * se:
        raise CheckFailed("law of total variance: " + summary)
    return summary
