"""Analytic coverage and offloading evaluation for the clustered D2D model.

Implements the interference Laplace transform of a Thomas cluster process
under worst-case (always-on) interference, a closed-form PPP-style lower
bound, conditional coverage for k cooperating caterers, the Poisson mixture
over the caterer count, and the single-caterer closed form used by the
cache optimizer.

All channel-dependent quantities are parameterized by the product
t_gamma = t * gamma_d = theta / s_m, which is free of the transmit power;
coverage and offloading outputs are therefore exactly invariant to gamma_d.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

from .model import CachingPolicy, ContentLibrary, NetworkConfig, _checked_probs

__all__ = [
    "QuadratureSpec",
    "CoverageResult",
    "NumericalError",
    "laplace_exact",
    "laplace_ppp_bound",
    "coverage_content",
    "compute_Z",
    "offloading_gain",
    "offloading_closed_form_k1",
]

COVERAGE_METHODS = ("exact-tcp", "ppp-bound")

# Gauss-Legendre orders for the production pass and the embedded error check.
_ORDER_FINE = 16
_ORDER_COARSE = 8
# production order of the far field's 2-D correction rows (_OuterGrid with
# v_inner > 0); the check stays at _ORDER_COARSE
_ORDER_FAR_FINE = 10
# outer log panels per decade: up to the radius floor, and beyond it, where
# the correction integrand is a smooth power law
_LOG_PANELS_PER_DECADE = 8
_TAIL_PANELS_PER_DECADE = 4
# exponent tables: quintic-spline nodes per decade of t_gamma, which fixes the
# node lattice t_j = 10^(j / 8), and the padding factor on each end of the
# requested range
_TABLE_NODES_PER_DECADE = 8
_TABLE_PAD = 10.0**0.25
# lattice spacing in ln t_gamma
_LATTICE_STEP = math.log(10.0) / _TABLE_NODES_PER_DECADE
# Sobol rows per block of the streamed coverage estimator (_caterer_means)
_QMC_BLOCK_ROWS = 4096
# points per slice of the table kernel (_eval_table): small enough for its
# scratch arrays to stay in cache
_EVAL_SLICE = 32768
# values per step of the zeta integrand (_ZetaRows): its buffer is 1 MB
_ZETA_BUFFER = 2**17
# threads per _thread_map at most, whatever the CPU count: each holds a few
# MB of scratch (a coverage thread about 3 MiB), and the cap bounds their sum
_MAX_THREADS = 4


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and sampling budgets for the numerical integration layer.

    Attributes
    ----------
    rel_tol, abs_tol : float
        Target relative/absolute tolerance for the Laplace-transform
        exponent; truncation radii are derived from these.
    v_max_sigma_mult : float
        Half-width of the distance integration window, as a multiple of
        sigma, around each conditioning distance; also sets the switch
        point between linear and logarithmic outer panels. Tail beyond
        the window decays like exp(-mult^2/2) and is negligible at the
        default.
    k_max_tail_mass : float
        Residual Poisson mass at which the caterer-count sum is cut; at
        least machine epsilon.
    mc_integration_samples : int
        Quasi-Monte-Carlo draws for the fading-distance integral.
    qmc_seed : int
        Scrambling seed for the low-discrepancy sequence; fixes the
        integration result bit-for-bit.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    v_max_sigma_mult: float = 10.0
    k_max_tail_mass: float = 1e-9
    mc_integration_samples: int = 200_000
    qmc_seed: int = 0

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "v_max_sigma_mult"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        # below machine epsilon the Poisson quantile at 1 - tail is taken at 1
        if not np.finfo(float).eps <= self.k_max_tail_mass < 1.0:
            raise ValueError("k_max_tail_mass must lie in [machine epsilon "
                             f"2.2e-16, 1), got {self.k_max_tail_mass!r}")
        if not _is_int(self.mc_integration_samples) or self.mc_integration_samples < 1_000:
            raise ValueError("mc_integration_samples must be an integer >= 1000, "
                             f"got {self.mc_integration_samples!r}")
        if not _is_int(self.qmc_seed) or self.qmc_seed < 0:
            raise ValueError(f"qmc_seed must be an integer >= 0, got {self.qmc_seed!r}")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class CoverageResult:
    """A coverage probability with its evaluation method and error estimate."""

    value: float
    method: str
    numerical_error: float

    def __post_init__(self):
        if self.method not in COVERAGE_METHODS:
            raise ValueError(f"method must be one of {COVERAGE_METHODS}")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"coverage value must lie in [0,1], got {self.value!r}")


class NumericalError(RuntimeError):
    """Raised when a quadrature or series evaluation cannot meet tolerance."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _thread_count() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads(n_items: int) -> int:
    """Threads for n_items work items: _thread_count(), at most
    _MAX_THREADS and one per item."""
    return min(_thread_count(), _MAX_THREADS, n_items)


_mapping = threading.local()  # .active: this thread runs a _thread_map item


def _thread_map(fn, items) -> list:
    """[fn(item) for item in items] on _threads(len(items)) threads, the
    calling thread among them.

    Threads pull items in order, one at a time, so no more than one item per
    thread is in flight. Results come back in item order; if items fail, the
    exception of the first failing one in item order is raised, as the
    serial loop would. A map called from inside fn runs serially, so nested
    maps never put more threads to work than the outer one. Pays off only
    where fn spends its time in numpy calls that release the GIL. The
    calling thread works rather than waits: with two pool threads and an
    idle caller, the benchmark's exact-offload workload peaked 3.8 MB higher
    in RSS, one more malloc arena's worth.
    """
    items = list(items)
    threads = _threads(len(items))
    if threads <= 1 or getattr(_mapping, "active", False):
        return [fn(item) for item in items]
    results, failures = [None] * len(items), {}
    order = iter(range(len(items)))  # shared: each index is handed out once

    def work():
        _mapping.active = True
        try:
            for i in order:
                try:
                    results[i] = fn(items[i])
                except Exception as exc:  # raised below, in item order
                    failures[i] = exc
        finally:
            _mapping.active = False

    with ThreadPoolExecutor(threads - 1) as pool:
        helpers = [pool.submit(work) for _ in range(threads - 1)]
        work()
        for helper in helpers:
            helper.result()
    if failures:
        raise failures[min(failures)]
    return results


def _gamma_pair(alpha: float) -> float:
    """Gamma(1 + 2/alpha) * Gamma(1 - 2/alpha), finite for alpha > 2, as
    NetworkConfig holds it."""
    return math.gamma(1.0 + 2.0 / alpha) * math.gamma(1.0 - 2.0 / alpha)


def _rician_pdf(u, v, sigma):
    """Rician density of the distance u to a point Gaussian-displaced from
    a center at distance v, displacement std sigma per axis.

    Evaluated as (u/sigma^2) exp(-(u-v)^2 / 2 sigma^2) i0e(u v / sigma^2),
    where i0e is the exponentially scaled modified Bessel function; the
    rescaling keeps the product finite for arbitrarily large u v / sigma^2.
    Accepts scalars or broadcastable arrays; sigma > 0, as NetworkConfig
    holds it.
    """
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if np.any(u_arr < 0) or np.any(v_arr < 0):
        raise ValueError("distances u and v must be non-negative")
    s2 = sigma * sigma
    # in place, with the three factors multiplied in the order written above
    out = np.asarray(np.subtract(u_arr, v_arr))
    out **= 2
    np.negative(out, out=out)
    out /= 2.0 * s2
    np.exp(out, out=out)
    out *= u_arr / s2
    bessel = np.asarray(np.multiply(u_arr, v_arr))
    bessel /= s2
    out *= special.i0e(bessel, out=bessel)
    if np.isscalar(u) and np.isscalar(v):
        return float(out)
    return out


@lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of one order on [-1, 1], computed
    once per order (leggauss takes 0.15-0.2 ms) and read-only, so that no
    caller can change another's rule."""
    x, w = leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_rule(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights over consecutive panels."""
    x, w = _gauss_legendre(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# Unit-interval template for the inner distance integral: a geometrically
# refined head resolves the SIR-kernel knee when it sits near u = 0, the
# uniform body resolves the Rician bulk at panel width ~ sigma.
_U_TEMPLATE_EDGES = np.concatenate(
    [[0.0, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03], np.linspace(0.06, 1.0, 26)]
)


def _u_template(order: int) -> tuple[np.ndarray, np.ndarray]:
    return _panel_rule(_U_TEMPLATE_EDGES, order)


def _window_halfwidth(cfg: NetworkConfig, quad: QuadratureSpec) -> float:
    # +3 sigma of margin beyond the configured multiple; Gaussian mass
    # outside is exp(-mult^2/2), far below abs_tol at the default 13 sigma
    return (quad.v_max_sigma_mult + 3.0) * cfg.sigma


class _ZetaRows:
    """The zeta(v, t_gamma) integrand on an array of center distances v.

    Everything but the SIR kernel is t-independent: the inner u nodes and
    weights, the Rician density and u**alpha are computed once per row, so
    each evaluation costs the kernel t/(u^alpha + t), two products and a
    sum, all in one buffer. Row i is the inner quadrature for center
    distance v[i], computed elementwise, so its values do not depend on the
    other rows, and an evaluation over the first rows equals the same rows
    of a shorter array. Evaluations only read the rows, so threads may
    share one instance.
    """

    def __init__(self, v, cfg: NetworkConfig, half_width: float, order: int):
        s_nodes, s_weights = _u_template(order)
        lo = np.maximum(v - half_width, 0.0)
        span = v + half_width - lo
        u = span[:, None] * s_nodes[None, :]
        u += lo[:, None]
        self._wu = span[:, None] * s_weights[None, :]
        self._rician = _rician_pdf(u, v[:, None], cfg.sigma)
        # where u**alpha overflows to inf the kernel t/(inf + t) is exactly 0
        with np.errstate(over="ignore"):
            u **= cfg.alpha
        self._u_alpha = u
        self.rows = v.size
        # center distances per evaluation step: a kernel buffer of about 1 MB
        self._step = max(1, _ZETA_BUFFER // s_nodes.size)

    def __call__(self, t_gamma, rows=None):
        """zeta at one t_gamma for the first `rows` center distances (all by default)."""
        rows = self.rows if rows is None else rows
        zeta = np.empty(rows)
        kernel = np.empty((min(rows, self._step), self._u_alpha.shape[1]))
        for start in range(0, rows, self._step):
            part = slice(start, min(start + self._step, rows))
            buf = kernel[:part.stop - start]
            np.add(self._u_alpha[part], t_gamma, out=buf)
            np.divide(t_gamma, buf, out=buf)
            # multiply in this order: pre-multiplying density and weight moves
            # the last bit of small-t transforms, whose frozen references
            # resolve it
            buf *= self._rician[part]
            buf *= self._wu[part]
            buf.sum(axis=1, out=zeta[part])
        return np.clip(zeta, 0.0, 1.0, out=zeta)


def zeta_kernel(v, t_gamma: float, cfg: NetworkConfig, quad: QuadratureSpec):
    """Mean SIR-kernel mass contributed by one cluster at center distance v.

    zeta(v, t) = integral over u of [t_gamma / (u^alpha + t_gamma)] times the
    Rician density of the member distance u given center distance v. Lies in
    [0, 1]. Vectorized over v; scalar v returns a float.

    Raises ValueError for a negative or NaN t_gamma, and NumericalError
    when the embedded two-order quadrature check disagrees beyond tolerance.
    """
    if not t_gamma >= 0:
        raise ValueError(f"t_gamma must be >= 0, got {t_gamma!r}")
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(v_arr < 0):
        raise ValueError("center distance v must be >= 0")
    if t_gamma == 0.0:
        out = np.zeros_like(v_arr)
        return float(out[0]) if np.isscalar(v) else out

    half_width = _window_halfwidth(cfg, quad)
    fine = _ZetaRows(v_arr, cfg, half_width, _ORDER_FINE)(t_gamma)
    coarse = _ZetaRows(v_arr, cfg, half_width, _ORDER_COARSE)(t_gamma)
    err = np.max(np.abs(fine - coarse))
    if not np.all(np.isfinite(fine)) or err > 1e-6:
        raise NumericalError(
            "inner distance quadrature failed to converge",
            diagnostics={"t_gamma": t_gamma, "max_order_disagreement": float(err)},
        )
    if np.isscalar(v):
        return float(fine[0])
    return fine


def _exponent_ppp(t_gamma: float, cfg: NetworkConfig) -> float:
    """Exponent of the closed-form PPP-style bound on the Laplace transform."""
    return (
        math.pi
        * cfg.n_bar
        * cfg.lambda_p
        * t_gamma ** (2.0 / cfg.alpha)
        * _gamma_pair(cfg.alpha)
    )


def _marcum_q1(a, b):
    """Marcum Q_1(a, b), the survival function at b^2 of a noncentral
    chi-square with 2 degrees of freedom and noncentrality a^2, as
    1 - special.chndtr: within 1e-14 absolute of scipy.stats.ncx2.sf, all
    that the far grid's near-disc rows need, and without scipy.stats."""
    return 1.0 - special.chndtr(b**2, 2, a**2)


class _OuterGrid:
    """The t-independent half of _exponents_exact for one (cfg, quad,
    v_inner), up to the truncation radius of t_max: the outer panel edges
    over the cluster-center distance and, per Gauss order, the nodes,
    weights and zeta rows (_ZetaRows) on them.

    The edges are nested: linear panels across the window, log panels up to
    the t-independent radius floor, then _TAIL_PANELS_PER_DECADE log panels
    per decade beyond it, edge j of these at v_floor 10^(j/4), as many as
    t_max's truncation radius needs. A far-field grid (v_inner > 0) keeps
    only the edges beyond v_inner, with v_inner as its first edge, and
    holds the rows of its near-disc term as well (exponent). A t_gamma up
    to t_max integrates over the prefix of the grid up to its own
    truncation radius, rounded up to a panel edge (exponent); a larger one
    is refused. Every edge, node, weight and row is computed elementwise,
    so that prefix equals a grid built for t itself, bit for bit: a t's
    exponent depends neither on t_max nor on the thread that computes it.
    The grid is built once and then only read, so threads may share it.

    Each value is a production (fine) and a check (coarse) Gauss pass, and
    the error it reports is |fine - coarse|, set by the order-8 check. The
    exact grid (v_inner = 0) runs orders 16 and 8. A far-field grid builds
    its correction rows, outer panels and inner u template alike, at
    orders _ORDER_FAR_FINE = 10 and 8, at 10/16 of the rows: order 16 is
    about 100 times more accurate than the error the check reports, and
    order 10 lies within that error of order 16 at every lattice node over
    t = 1e-8..1e12 at alpha 2.5, 3 and 4 and at sigma = 10 m with
    n_bar = 20 (moving nodes by at most 1e-10 at the reference scenario).
    At alpha 6 with v_inner = sigma, where the u template's panels miss the
    kernel's t^(1/alpha) knee, four of those nodes lie up to 18 times
    their reported error from order 16, by at most 3.4e-9. The near-disc
    rows stay at orders 16 and 8: at order 10 they miss that knee (1.8e-10
    off at v_inner = sigma, alpha 2.5, t = 1e-8, against a reported
    9e-11). The exact grid keeps order 16, bit for bit, because
    bench/references.json resolves the last bit of its small-t transforms.
    """

    def __init__(self, cfg: NetworkConfig, quad: QuadratureSpec, v_inner: float = 0.0,
                 t_max: float = 0.0):
        self.cfg, self.quad, self.v_inner, self.t_max = cfg, quad, v_inner, t_max
        half_width = _window_halfwidth(cfg, quad)
        # radius floor: twice the window, and ten cluster spreads plus five radii
        # of the disc that holds one parent on average
        self.v_floor = max(2.0 * half_width,
                           10.0 * cfg.sigma + 5.0 / math.sqrt(math.pi * cfg.lambda_p), v_inner)
        n_lin = max(1, math.ceil(half_width / cfg.sigma))
        n_log = max(2, math.ceil(_LOG_PANELS_PER_DECADE * math.log10(self.v_floor / half_width)))
        base_edges = np.concatenate([
            np.linspace(0.0, half_width, n_lin + 1),
            np.geomspace(half_width, self.v_floor, n_log + 1)[1:],
        ])
        self._near = None
        if v_inner > 0:
            base_edges = np.concatenate([[v_inner], base_edges[base_edges > v_inner]])
            # the near-disc term's rows per Gauss order: r^alpha and the weight
            # times Q_1(r / sigma, v_inner / sigma) r, on [0, r_max] beyond which
            # Q_1 is 1 to within exp(-13^2 / 2). A geometric head like the u
            # template's, at twice its density, resolves the kernel's knee near
            # r = 0, where Q_1 is exp(-v_inner^2 / 2 sigma^2) (at r_sim = sigma
            # the template's own head left 1e-6 of fine/coarse disagreement); a
            # uniform body of panels at most sigma wide resolves the step of
            # Q_1 at v_inner.
            self._r_max = v_inner + half_width
            head = self._r_max * np.concatenate([[0.0], np.geomspace(1e-4, 0.06, 13)])
            n_body = max(25, math.ceil((self._r_max - head[-1]) / cfg.sigma))
            r_edges = np.concatenate([head, np.linspace(head[-1], self._r_max, n_body + 1)[1:]])
            self._near = []
            for order in (_ORDER_FINE, _ORDER_COARSE):
                r, w = _panel_rule(r_edges, order)
                marcum = _marcum_q1(r / cfg.sigma, v_inner / cfg.sigma)
                self._near.append((order, r**cfg.alpha, w * marcum * r))
        self.n_base = base_edges.size - 1  # panels up to the radius floor
        self.edges = np.concatenate([
            base_edges,
            self.v_floor * 10.0 ** (np.arange(1, self.truncation(t_max)[2] + 1)
                                    / _TAIL_PANELS_PER_DECADE),
        ])
        # fine, then coarse: (order, nodes, weights, zeta rows) of the panels
        fine = _ORDER_FINE if v_inner == 0 else _ORDER_FAR_FINE
        self._rules = []
        for order in (fine, _ORDER_COARSE):
            v_nodes, v_weights = _panel_rule(self.edges, order)
            self._rules.append((order, v_nodes, v_weights,
                                _ZetaRows(v_nodes, cfg, half_width, order)))

    def truncation(self, t: float) -> tuple[float, float, int]:
        """(closed-form exponent, tail coefficient, log panels beyond the
        floor) of t: the grid's prefix that t integrates over."""
        cfg = self.cfg
        alpha, n_bar = cfg.alpha, cfg.n_bar
        e_ppp = _exponent_ppp(t, cfg)
        # the far exponent enters a probability as exp(-F): its absolute error
        # is what counts
        tol = self.quad.abs_tol if self.v_inner > 0 else max(self.quad.abs_tol,
                                                             self.quad.rel_tol * e_ppp)
        # truncation radius: correction integrand <= (n_bar*zeta)^2/2 with
        # zeta <= 2^alpha t_gamma v^-alpha once v exceeds twice the window
        tail_coeff = math.pi * cfg.lambda_p * n_bar**2 * 4.0**alpha * t**2 / (2 * alpha - 2)
        v_tail = (tail_coeff / tol) ** (1.0 / (2 * alpha - 2))
        v_max = max(self.v_floor, 2.0 * t ** (1.0 / alpha), v_tail)
        n_extra = math.ceil(_TAIL_PANELS_PER_DECADE * math.log10(v_max / self.v_floor))
        return e_ppp, tail_coeff, n_extra

    def _leading(self, t: float, e_ppp: float, rule: int) -> float:
        """The far field's leading term at t: 2 pi lambda_p n_bar times the
        integral over r of t r / (r^alpha + t) Q_1(r/sigma, v_inner/sigma),
        on the near-disc rows of one rule (0 fine, 1 coarse) up to r_max.
        Beyond r_max Q_1 is 1, and the term is e_ppp I_x(1 - 2/alpha,
        2/alpha) with x = t / (r_max^alpha + t), a regularized incomplete
        beta function."""
        cfg = self.cfg
        _, r_alpha, weight = self._near[rule]
        near = float((weight * (t / (r_alpha + t))).sum())
        x = t / (self._r_max**cfg.alpha + t)
        beyond = float(special.betainc(1.0 - 2.0 / cfg.alpha, 2.0 / cfg.alpha, x))
        return 2.0 * math.pi * cfg.lambda_p * cfg.n_bar * near + e_ppp * beyond

    def exponent(self, t: float) -> tuple[float, float]:
        """(exponent, error estimate) of _exponents_exact at one t_gamma in
        (0, t_max], on the prefix of this grid up to t's truncation radius.
        Raises ValueError for a t whose radius lies beyond the grid's."""
        cfg = self.cfg
        lam, n_bar = cfg.lambda_p, cfg.n_bar
        e_ppp, tail_coeff, n_extra = self.truncation(t)
        n_panels = self.n_base + n_extra
        if n_panels >= self.edges.size:
            raise ValueError(f"t_gamma {t!r} needs a truncation radius beyond that of "
                             f"the grid, built for t_gamma up to {self.t_max!r}")
        results = []
        for rule, (order, v_nodes, v_weights, zeta_rows) in enumerate(self._rules):
            rows = n_panels * order
            nz = n_bar * zeta_rows(t, rows)
            correction_integrand = nz + np.expm1(-nz)
            correction = 2.0 * math.pi * lam * float(
                (v_weights[:rows] * correction_integrand * v_nodes[:rows]).sum()
            )
            leading = e_ppp if self._near is None else self._leading(t, e_ppp, rule)
            results.append(leading - correction)
        exponent_fine, exponent_coarse = results

        tail_bound = tail_coeff * float(self.edges[n_panels]) ** (2.0 - 2.0 * cfg.alpha)
        err = abs(exponent_fine - exponent_coarse) + tail_bound
        if not math.isfinite(exponent_fine) or err > max(1e-6, 1e-3 * (1.0 + e_ppp)):
            raise NumericalError(
                "outer cluster-distance quadrature failed to converge",
                diagnostics={
                    "t_gamma": t,
                    "order_disagreement": abs(exponent_fine - exponent_coarse),
                    "tail_bound": tail_bound,
                },
            )
        return max(exponent_fine, 0.0), err


def _exponents_exact(t_gamma, cfg: NetworkConfig, quad: QuadratureSpec,
                     v_inner: float = 0.0):
    """Exponents E(t) = -ln L_I(t) of the exact cluster-process transform
    at a 1-D array of positive t_gamma.

    Uses the identity 2 pi lambda_p n_bar * integral(zeta(v) v dv) =
    exponent_ppp (the Rician density in u has first moment u over center
    distances), so the cluster exponent is computed as the closed-form
    term minus a non-negative correction whose integrand
    n_bar*zeta - 1 + exp(-n_bar*zeta) decays like v^(2 - 2 alpha). The
    split subtracts the slowly decaying part analytically, leaving a
    rapidly convergent outer integral, and makes the bound ordering exact
    by construction. Beyond the radius floor the integrand is a smooth
    power law, and 4 log panels per decade integrate it (_OuterGrid).

    The t-independent half, the outer grid with its zeta rows, is one
    _OuterGrid built on the calling thread at its final size, the
    truncation radius of the batch's largest t, and the per-t integrals
    are then spread over the threads (_thread_map). A t's result does not
    depend on the other members of the batch nor on the thread count.

    With v_inner > 0 the result is the far-field exponent F, of the
    clusters centered beyond v_inner only:
    F = 2 pi lambda_p * integral from v_inner of (1 - exp(-n_bar zeta)) v dv.
    By Fubini, the mean part 2 pi lambda_p n_bar * integral from v_inner of
    zeta v dv is a 1-D integral over the member distance r,
    2 pi lambda_p n_bar * integral of t r / (r^alpha + t) Q_1(r/sigma,
    v_inner/sigma) dr, where the Marcum function Q_1 is the probability
    that a member at distance r belongs to a cluster centered beyond
    v_inner (Afshang, Dhillon & Chong, TWC 2016). So
    F = that integral - 2 pi lambda_p * integral from v_inner of
    (n_bar zeta - 1 + exp(-n_bar zeta)) v dv: a sum of the 1-D term, on a
    fixed r grid up to v_inner + 13 sigma and in closed form beyond, and
    the correction on outer panels from v_inner outward. No term is
    subtracted from one of its own size, so F keeps its relative accuracy
    at small t (the two-dimensional near-disc mean, subtracted from the
    closed-form term, lost it there). Its truncation tolerance is
    abs_tol: the far exponent enters a probability as exp(-F), so its
    absolute error is what counts.

    Gauss orders: the exact route runs a fine pass at order 16 and a check
    at order 8. The far field runs its correction at 10 and 8, its 1-D
    near-disc term at 16 and 8. The order-8 check sets the reported error
    either way, and order 10 is within it on the correction but for a
    kernel knee the u template misses (_OuterGrid). The exact route keeps
    order 16 so that its values stay the same to the last bit, which the
    frozen Laplace references resolve; it can follow once those
    references have a tolerance floor of a few ulps.

    Returns (exponents, error_estimates) as two arrays.
    """
    t_gamma = list(np.asarray(t_gamma, dtype=float))
    grid = _OuterGrid(cfg, quad, v_inner, max(t_gamma, default=0.0))
    exponents, errors = np.array(_thread_map(grid.exponent, t_gamma),
                                 dtype=float).reshape(-1, 2).T
    return exponents, errors


def _exponent_exact(t_gamma: float, cfg: NetworkConfig, quad: QuadratureSpec):
    """(exponent, error_estimate) of _exponents_exact at one t_gamma > 0."""
    exponents, errors = _exponents_exact(np.array([t_gamma], dtype=float), cfg, quad)
    return float(exponents[0]), float(errors[0])


def laplace_exact(t_gamma, cfg: NetworkConfig, quad: QuadratureSpec):
    """Laplace transform of the worst-case cluster-process interference.

    L(t_gamma) = exp(-2 pi lambda_p * integral over v of
    (1 - exp(-n_bar zeta(v, t_gamma))) v dv). Monotone non-increasing in
    t_gamma with values in (0, 1]. Accepts a scalar or array argument; an
    array is evaluated in one batch, with the same values as element-wise
    scalar calls. A negative or NaN t_gamma is a ValueError.
    """
    t_arr = np.atleast_1d(np.asarray(t_gamma, dtype=float))
    if not np.all(t_arr >= 0):
        raise ValueError("t_gamma must be >= 0")
    out = np.ones_like(t_arr)
    pos = t_arr > 0
    exponents, _ = _exponents_exact(t_arr[pos], cfg, quad)
    out[pos] = [math.exp(-e) for e in exponents]
    if np.isscalar(t_gamma):
        return float(out[0])
    return out


def laplace_ppp_bound(t_gamma, cfg: NetworkConfig):
    """Closed-form lower bound on the interference Laplace transform.

    exp(-pi n_bar lambda_p t_gamma^(2/alpha) Gamma(1+2/alpha) Gamma(1-2/alpha)):
    the transform of a marginally equivalent unclustered network of density
    n_bar lambda_p. Never exceeds laplace_exact. Vectorized; a negative or
    NaN t_gamma is a ValueError.
    """
    t_arr = np.asarray(t_gamma, dtype=float)
    if not np.all(t_arr >= 0):
        raise ValueError("t_gamma must be >= 0")
    coeff = math.pi * cfg.n_bar * cfg.lambda_p * _gamma_pair(cfg.alpha)
    out = np.exp(-coeff * t_arr ** (2.0 / cfg.alpha))
    if np.isscalar(t_gamma):
        return float(out)
    return out


def _lattice_t(j: int) -> float:
    """Node j of the exponent lattice, t_gamma = 10^(j / _TABLE_NODES_PER_DECADE)."""
    return 10.0 ** (j / _TABLE_NODES_PER_DECADE)


class _ExponentLattice:
    """Exact exponents on the fixed node lattice t_j = 10^(j/8) for one
    (cfg, quad, v_inner), held by lattice index.

    A node has the same value, bit for bit, whatever batch or thread
    computes it, so a table over a window of the lattice is a pure function
    of (cfg, quad, v_inner, window), whatever calls came before it. The
    lattice holds only the node values, two floats per index; each batch of
    missing nodes builds its own quadrature grid (_exponents_exact). The
    process keeps one lattice per configuration (_lattice), so every call
    at that configuration computes a node once. Threads may share a
    lattice: two that lack the same node both compute it, with one value.

    An exact lattice (v_inner = 0) tabulates every node, 8 per decade. A
    far-field lattice (v_inner > 0) tabulates only the even j, 4 per
    decade: its table interpolates ln F (simulator._far_field), which at
    half the nodes is about as accurate as F itself was at all of them.
    """

    def __init__(self, cfg: NetworkConfig, quad: QuadratureSpec, v_inner: float = 0.0):
        self.cfg, self.quad, self.v_inner = cfg, quad, v_inner
        self._nodes = {}  # lattice index -> (exponent, error estimate)

    def _window(self, t_lo, t_hi) -> range:
        """Lattice indices of a table over [t_lo, t_hi], padded by
        _TABLE_PAD and rounded out to the lattice's nodes (at least 8).

        A far-field lattice steps over every other index (even j only) and
        adds two more of its nodes at each end: a quintic's end intervals
        are its least accurate, and without them exp(-F) at alpha 4 strays
        by 2.5e-7 near the top of the table."""
        stride, extra = (2, 2) if self.v_inner > 0 else (1, 0)
        x_lo = _TABLE_NODES_PER_DECADE * math.log10(t_lo / _TABLE_PAD)
        x_hi = _TABLE_NODES_PER_DECADE * math.log10(t_hi * _TABLE_PAD)
        j_lo = stride * (math.floor(x_lo / stride) - extra)
        j_hi = stride * (math.ceil(x_hi / stride) + extra)
        short = max(0, 8 - ((j_hi - j_lo) // stride + 1))
        return range(j_lo - stride * (short // 2),
                     j_hi + stride * (short - short // 2) + 1, stride)

    def table(self, t_lo, t_hi):
        """Exact exponents tabulated over [t_lo, t_hi] at the nodes of
        _window: the range padded by _TABLE_PAD and rounded out to the
        lattice's nodes (at least 8).

        Computes the window's missing nodes in one _exponents_exact batch,
        keeping none of them if it raises, and joins the window's nodes in
        ln t by a not-a-knot degree-5 interpolating spline of ln E, so every
        node must be positive (NumericalError otherwise). Over t_gamma in
        [1e-8, 1e9] at alpha 2.5, 3 and 4 it moves L by under 2.6e-10, less
        than a cubic at 24 nodes per decade. The spline is returned as
        plain arrays, (x, coef): x = ln t at the nodes, and coef[m, i] the
        degree-m Taylor coefficient of the spline at x[i], which gives its
        piece on [x[i], x[i+1]] (_eval_table). Returns ((x, coef), t_nodes,
        error_estimates).
        """
        # 0.4 s to import, and only a table builds a spline
        from scipy.interpolate import make_interp_spline

        window = self._window(t_lo, t_hi)
        missing = [j for j in window if j not in self._nodes]
        if missing:
            exponents, errors = _exponents_exact(
                np.array([_lattice_t(j) for j in missing]), self.cfg, self.quad, self.v_inner)
            self._nodes.update(zip(missing, zip(exponents.tolist(), errors.tolist())))
        t_nodes = np.array([_lattice_t(j) for j in window])
        exponents, errors = np.array([self._nodes[j] for j in window]).T
        if np.any(exponents <= 0):
            bad = int(np.argmax(exponents <= 0))
            raise NumericalError("non-positive exponent in spline table",
                                 diagnostics={"t_gamma": float(t_nodes[bad]),
                                              "exponent": float(exponents[bad])})
        x = np.log(t_nodes)
        spline = make_interp_spline(x, np.log(exponents), k=5)
        coef = np.array([spline(x[:-1], nu=m) / math.factorial(m) for m in range(6)])
        return (x, coef), t_nodes, errors


@lru_cache(maxsize=64)
def _lattices(lambda_p: float, n_bar: float, sigma: float, alpha: float, rel_tol: float,
              abs_tol: float, v_max_sigma_mult: float, v_inner: float) -> _ExponentLattice:
    return _ExponentLattice(NetworkConfig(lambda_p, n_bar, sigma, alpha, theta=1.0),
                            QuadratureSpec(rel_tol, abs_tol, v_max_sigma_mult), v_inner)


def _lattice(cfg: NetworkConfig, quad: QuadratureSpec, v_inner: float = 0.0) -> _ExponentLattice:
    """The process's exponent lattice of (cfg, quad, v_inner), from a memo
    of the 64 most recently used (_lattices). Its key is what the exponent
    reads: lambda_p, n_bar, sigma and alpha of cfg, the tolerances and
    window of quad (_OuterGrid) and v_inner; not theta nor gamma_d, nor
    quad's QMC fields, so a sweep over the threshold or the QMC seed
    computes each node once. An entry holds only node values: 23 KB of
    Python objects for the 138 nodes of exact coverage at the reference
    scenario."""
    return _lattices(cfg.lambda_p, cfg.n_bar, cfg.sigma, cfg.alpha, quad.rel_tol,
                     quad.abs_tol, quad.v_max_sigma_mult, v_inner)


def _eval_table(table, x: np.ndarray, name: str, out=None) -> np.ndarray:
    """An _ExponentLattice table (x_nodes, coef) at x = ln t_gamma, written
    to out (a new array by default; out may be x itself). Raises
    ValueError for a value outside the table (or NaN) rather than
    extrapolate.

    The nodes step by the lattice's stride times _LATTICE_STEP in ln t, so
    a point's piece is i = min(floor((x - x_0) / h), n - 2), and its value
    the Horner sum of coef[:, i] at s = x - x_i. Where rounding moves i by
    one at a node, the neighbouring piece is evaluated, which is continuous
    there to rounding. Plain numpy, which releases the GIL. Points go
    through in slices of _EVAL_SLICE, so the scratch arrays stay small and
    are reused.
    """
    x_nodes, coef = table
    if not (x.min() >= x_nodes[0] and x.max() <= x_nodes[-1]):
        raise ValueError(f"t_gamma outside the {name} table")
    # the lattice stride: 1 for an exact table, 2 for a far-field one
    h = _LATTICE_STEP * round((x_nodes[1] - x_nodes[0]) / _LATTICE_STEP)
    if out is None:
        out = np.empty_like(x)
    size = min(x.size, _EVAL_SLICE)
    scratch = (np.empty(size, np.intp), np.empty(size), np.empty(size))
    for start in range(0, x.size, _EVAL_SLICE):
        xs, o = x[start:start + _EVAL_SLICE], out[start:start + _EVAL_SLICE]
        i, s, term = (a[:xs.size] for a in scratch)
        np.subtract(xs, x_nodes[0], out=s)
        s /= h
        np.minimum(s, x_nodes.size - 2, out=s)
        i[...] = s  # truncation is the floor: s >= 0
        np.take(x_nodes, i, out=s, mode="clip")
        np.subtract(xs, s, out=s)
        # xs is read for the last time above, so o may share its memory
        np.take(coef[-1], i, out=o, mode="clip")
        for row in coef[-2::-1]:
            o *= s
            o += np.take(row, i, out=term, mode="clip")
    return out


def laplace_fn_exact(cfg: NetworkConfig, quad: QuadratureSpec, t_range):
    """Vectorized evaluator of the exact transform, built once over
    t_range = (lo, hi) and then evaluated at millions of points.

    A log-log quintic table of the exponent over the process's lattice of
    cfg and quad (_lattice), its per-node Taylor coefficients evaluated by
    _eval_table: L = exp(-exp(table(ln t_gamma))). The evaluator is 1 at
    t_gamma = 0; it raises ValueError for a negative or NaN t_gamma, and
    for a positive one outside the padded table instead of extrapolating.
    """
    table, _, _ = _lattice(cfg, quad).table(*t_range)

    def positive(t):
        # in place, so that one batch-sized temporary, ln t, serves every step
        x = np.log(t)
        _eval_table(table, x, "exact transform", out=x)
        np.exp(x, out=x)
        np.negative(x, out=x)
        return np.exp(x, out=x)

    def laplace(t_gamma):
        t_arr = np.asarray(t_gamma, dtype=float)
        if t_arr.ndim and t_arr.size and t_arr.min() > 0:
            # every t positive, as in the coverage estimator: no mask, gather
            # or scatter
            return positive(t_arr.reshape(-1)).reshape(t_arr.shape)
        t_flat = np.atleast_1d(t_arr)
        out = np.ones_like(t_flat)
        pos = t_flat > 0
        n_pos = np.count_nonzero(pos)
        # only where some t is not positive: the rest must be 0, not < 0 or NaN
        if n_pos < pos.size and np.any(t_flat[~pos] != 0):
            raise ValueError("t_gamma must be >= 0")
        if n_pos:
            out[pos] = positive(t_flat[pos])
        return float(out[0]) if t_arr.ndim == 0 else out

    return laplace


def _sobol_rows(engine, out: np.ndarray) -> np.ndarray:
    """The engine's next out.shape[0] Sobol rows, clipped to the open unit
    interval, written to out."""
    with warnings.catch_warnings():
        # the sample count is a user-set budget, not forced to a power of two;
        # consecutive draws continue one Sobol sequence
        warnings.simplefilter("ignore", UserWarning)
        return np.clip(engine.random(out.shape[0]), 1e-16, 1.0 - 1e-16, out=out)


def _to_t_gamma(h: np.ndarray, cfg: NetworkConfig) -> np.ndarray:
    """Rows of clipped unit draws turned in place into t_gamma = theta / S_k:
    h = 2 sigma sqrt(-log1p(-unit)) is a Rayleigh(sqrt(2) sigma) distance,
    and column k-1 of S sums h^-alpha over the first k of them. Elementwise
    and in column order, so a row's values do not depend on the rows drawn
    with it."""
    np.negative(h, out=h)
    np.log1p(h, out=h)
    np.negative(h, out=h)
    np.sqrt(h, out=h)
    np.multiply(2.0 * cfg.sigma, h, out=h)
    h **= -cfg.alpha
    # the prefix sum, added in the order np.cumsum adds it, at half its cost
    for k in range(1, h.shape[1]):
        h[:, k] += h[:, k - 1]
    return np.divide(cfg.theta, h, out=h)


def _t_window(k_max: int, cfg: NetworkConfig, quad: QuadratureSpec) -> tuple[float, float]:
    """(min, max) of t_gamma over the n x k_max draw of _caterer_means,
    found before any transform is evaluated, from one serial pass of a
    second engine that holds only a few candidate rows.

    t_gamma falls along a row, since S_k grows with k. Its largest value is
    theta / S_1 of the row with the largest first draw, as
    f(u) = (4 sigma^2 w(u))^(-alpha/2), w(u) = -log1p(-u), is decreasing.
    Its smallest is theta / S_k_max of the row with the largest S_k_max,
    which is at least f(u_min) for the smallest draw u_min, while a row
    whose smallest draw is u has S_k_max <= k_max f(u): only a row with
    w(u) <= w(u_min) k_max^(2/alpha) can hold it. Both tests keep a margin
    of 1e-9 in w, far above rounding, and run against the extremes seen so
    far, which only tighten. The candidates' t_gamma then come from
    _to_t_gamma, as in the main pass, so the window is the whole draw's
    own min and max, bit for bit.
    """
    from scipy.stats import qmc  # 0.5 s to import, so only where needed

    n = quad.mc_integration_samples
    engine = qmc.Sobol(d=k_max, scramble=True, seed=quad.qmc_seed)
    reach = k_max ** (2.0 / cfg.alpha) * (1.0 + 1e-9)
    u_min, u_top = 1.0, 0.0
    rows = np.empty((0, k_max))
    for start in range(0, n, _QMC_BLOCK_ROWS):
        unit = _sobol_rows(engine, np.empty((min(_QMC_BLOCK_ROWS, n - start), k_max)))
        u_min, u_top = min(u_min, unit.min()), max(u_top, unit[:, 0].max())
        lo = -math.expm1(math.log1p(-u_min) * reach)
        hi = -math.expm1(math.log1p(-u_top) / (1.0 + 1e-9))
        # flat, not row by row: a row-wise min costs more than the draw
        hits = np.union1d(np.flatnonzero(unit <= lo) // k_max, np.flatnonzero(unit[:, 0] >= hi))
        rows = np.concatenate([rows[(rows.min(axis=1) <= lo) | (rows[:, 0] >= hi)], unit[hits]])
    t_gamma = _to_t_gamma(rows, cfg)
    return float(t_gamma.min()), float(t_gamma.max())


class _Turns:
    """Turns taken in item order by the threads of one _thread_map:
    turn(i) waits until items 0..i-1 have had theirs, and passes the turn
    on when it ends, also when its body raises. The map hands items out in
    order, so every item a turn waits for is already held by a thread that
    will reach its own turn; an item must take each turn exactly once."""

    def __init__(self):
        self._next = 0
        self._changed = threading.Condition()

    @contextmanager
    def turn(self, i: int):
        with self._changed:
            self._changed.wait_for(lambda: self._next == i)
        try:
            yield
        finally:
            with self._changed:
                self._next += 1
                self._changed.notify_all()


def _carry(total, buf: np.ndarray, lo: int, hi: int):
    """total plus rows lo..hi-1 of the block held in buf[1:], added row by
    row in the order numpy's axis-0 sum adds them: buf[lo], the spare row
    or a row already carried, takes total, and one axis-0 sum starts from
    it. total is None before the first row."""
    if lo == hi:
        return total
    if total is None:
        return np.add.reduce(buf[1 + lo:1 + hi], axis=0)
    buf[lo] = total
    return np.add.reduce(buf[lo:1 + hi], axis=0)


def _caterer_means(k_max: int, cfg: NetworkConfig, quad: QuadratureSpec, laplace_fn=None):
    """Per-k quasi-Monte-Carlo means of L(theta / S_k), k = 1..k_max.

    Row i of n = quad.mc_integration_samples scrambled-Sobol rows (seed
    quad.qmc_seed) holds k_max i.i.d. pairwise distances
    h_ij ~ Rayleigh(sqrt(2) sigma), and S_k = sum of h_ij^-alpha over its
    first k (_to_t_gamma). laplace_fn defaults to the exact transform, built
    once over the draw's t_gamma range, which a pre-pass finds without
    evaluating any transform (_t_window).

    One streamed pass over blocks of _QMC_BLOCK_ROWS rows, on the threads
    of one _thread_map: each block is drawn from one engine in block order
    (a turn per block), turned into t_gamma and then L(t_gamma), and added
    into the per-k sums in block order (a second turn). So a call holds a
    few blocks per thread, whatever n is, and every row, and so every mean,
    is the same at any thread count. Returns three length-k_max arrays: the
    means over all rows, over rows [0, n//2) and over rows [n//2, n). Each
    sum is carried row by row (_carry), as numpy's axis-0 mean of a C-order
    n x k_max array adds it, so the means equal those of a whole-array
    evaluation bit for bit. At k_max = 1 that mean is pairwise, not row by
    row, so the one column of n values is kept and numpy's mean taken. A
    non-finite transform raises NumericalError for the lowest bad block,
    with that block's index, rows and first bad k.
    """
    from scipy.stats import qmc  # 0.5 s to import, so only where needed

    if laplace_fn is None:
        laplace_fn = laplace_fn_exact(cfg, quad, t_range=_t_window(k_max, cfg, quad))
    n, half = quad.mc_integration_samples, quad.mc_integration_samples // 2
    starts = range(0, n, _QMC_BLOCK_ROWS)
    engine = qmc.Sobol(d=k_max, scramble=True, seed=quad.qmc_seed)
    drawn, folded = _Turns(), _Turns()
    column = np.empty((n, 1)) if k_max == 1 else None
    total = first = second = None  # row sums over [0, n), [0, half), [half, n)

    def fold(start, buf):
        nonlocal total, first, second
        size = buf.shape[0] - 1
        if column is not None:
            column[start:start + size] = buf[1:]
            return
        cut = min(max(half - start, 0), size)  # the block's rows before row half
        total = _carry(total, buf, 0, cut)
        if cut < size:
            if first is None:
                first = total
            total = _carry(total, buf, cut, size)
            second = _carry(second, buf, cut, size)

    def block(i):
        done = False
        try:
            with drawn.turn(i):
                start = starts[i]
                buf = np.empty((min(_QMC_BLOCK_ROWS, n - start) + 1, k_max))
                lap = _sobol_rows(engine, buf[1:])
            t_gamma = _to_t_gamma(lap, cfg)
            lap[...] = laplace_fn(t_gamma.ravel()).reshape(lap.shape)
            bad = np.flatnonzero(~np.isfinite(lap.sum(axis=0)))
            if bad.size:
                raise NumericalError(
                    "non-finite Laplace transform in the coverage estimator",
                    diagnostics={"block": i, "rows": (start, start + lap.shape[0]),
                                 "k": int(bad[0]) + 1},
                )
            done = True
        finally:
            # taken also when the block failed, so the later ones are not held up
            with folded.turn(i):
                if done:
                    fold(start, buf)

    _thread_map(block, range(len(starts)))
    if column is not None:
        return column.mean(axis=0), column[:half].mean(axis=0), column[half:].mean(axis=0)
    return total / n, first / half, second / (n - half)


def _poisson_pmf(k: np.ndarray, mean: float) -> np.ndarray:
    """P(K = k) for K ~ Poisson(mean), as scipy.stats.poisson.pmf computes
    it, bit for bit: exp(xlogy(k, mean) - gammaln(k + 1) - mean)."""
    return np.exp(special.xlogy(k, mean) - special.gammaln(k + 1) - mean)


def _poisson_sf(k: int, mean: float) -> float:
    """P(K > k) for K ~ Poisson(mean), as scipy.stats.poisson.sf."""
    return float(special.pdtrc(k, mean))


def _poisson_isf(q: float, mean: float) -> int:
    """Smallest k with P(K > k) <= q, as scipy.stats.poisson.isf computes
    it: the quantile at 1 - q, ceil(pdtrik), stepped down by one where
    pdtr shows the smaller k suffices."""
    p = 1.0 - q
    k = math.ceil(special.pdtrik(p, mean))
    below = max(k - 1, 0)
    return below if special.pdtr(below, mean) >= p else k


def _poisson_k_max(mean: float, tail_mass: float) -> int:
    """Smallest k with P(K > k) < tail_mass for K ~ Poisson(mean)."""
    if mean <= 0:
        return 0
    k = _poisson_isf(tail_mass, mean) + 1
    while _poisson_sf(k, mean) >= tail_mass:  # isf rounding guard
        k += 1
    return k


def coverage_content(
    c_m: float, cfg: NetworkConfig, quad: QuadratureSpec, method: str = "exact-tcp"
) -> CoverageResult:
    """Unconditional D2D coverage for a file cached with probability c_m.

    Poisson mixture over the caterer count K with mean c_m * n_bar: sums
    P(K=k) * P_k for k = 1..k_max, where P_k is the coverage with exactly
    k cooperating caterers and k_max leaves residual mass below
    quad.k_max_tail_mass; K=0 contributes zero. The error field combines
    the Poisson tail with a half-sample quasi-Monte-Carlo estimate.

    All k share one k_max-dimensional Sobol draw (_caterer_means). Its rows
    are streamed in one pass of blocks, so the call holds a few blocks per
    thread, whatever n is; value and error equal those of the whole-array
    estimator bit for bit.
    """
    if not 0.0 <= c_m <= 1.0:
        raise ValueError(f"caching probability must lie in [0,1], got {c_m!r}")
    if method not in COVERAGE_METHODS:
        raise ValueError(f"method must be one of {COVERAGE_METHODS}, got {method!r}")
    mean_k = c_m * cfg.n_bar
    k_max = _poisson_k_max(mean_k, quad.k_max_tail_mass)
    if k_max == 0:
        return CoverageResult(0.0, method, float(min(1.0, quad.k_max_tail_mass)))

    laplace_fn = partial(laplace_ppp_bound, cfg=cfg) if method == "ppp-bound" else None
    means, means_a, means_b = _caterer_means(k_max, cfg, quad, laplace_fn)
    pmf = _poisson_pmf(np.arange(1, k_max + 1), mean_k)
    value = float(means @ pmf)
    value_a = float(means_a @ pmf)
    value_b = float(means_b @ pmf)
    tail = _poisson_sf(k_max, mean_k)
    err = 0.5 * abs(value_a - value_b) + tail
    return CoverageResult(min(max(value, 0.0), 1.0), method, err)


def compute_Z(cfg: NetworkConfig) -> float:
    """Normalizer of the single-caterer closed form.

    Z = 4 sigma^2 pi n_bar lambda_p theta^(2/alpha)
        Gamma(1+2/alpha) Gamma(1-2/alpha) + 1,
    the reciprocal of the k=1 bound coverage; Z >= 1, equal to 1 only as
    theta -> 0.
    """
    return (
        4.0
        * cfg.sigma**2
        * math.pi
        * cfg.n_bar
        * cfg.lambda_p
        * cfg.theta ** (2.0 / cfg.alpha)
        * _gamma_pair(cfg.alpha)
        + 1.0
    )


def offloading_gain(policy: CachingPolicy, library: ContentLibrary, coverage_fn) -> float:
    """Request-weighted offloading probability of a caching policy.

    sum_m q_m (c_m + (1 - c_m) coverage_fn(c_m)). coverage_fn maps a caching
    probability to a coverage value (floats and CoverageResult both accepted)
    and is called once per distinct c_m. The policy needs one entry per
    file; its box 0 <= c_m <= 1 holds by construction (CachingPolicy), and
    the budget is the caller's concern, so vectors that miss it (baselines,
    partial placements) can still be scored.
    """
    c = _checked_probs(policy, library)
    q = library.popularity
    unique_c, inverse = np.unique(c, return_inverse=True)
    cov = np.empty_like(unique_c)
    for i, ci in enumerate(unique_c):
        if ci == 1.0:
            cov[i] = 0.0  # weight (1 - c_m) vanishes; skip the evaluation
            continue
        result = coverage_fn(float(ci))
        cov[i] = getattr(result, "value", result)
    gain = float(np.sum(q * (c + (1.0 - c) * cov[inverse])))
    return min(max(gain, 0.0), 1.0)


def _k1_gain(c, n_bar: float, z: float):
    """Single-caterer offloading gain of one file at unit popularity,
    c + (1 - c) c n_bar exp(-c n_bar) / Z. Vectorized over c."""
    return c + (1.0 - c) * c * n_bar * np.exp(-c * n_bar) / z


def offloading_closed_form_k1(
    policy: CachingPolicy, library: ContentLibrary, cfg: NetworkConfig
) -> float:
    """Single-caterer closed-form offloading gain (the optimizer objective).

    sum_m q_m (c_m + (1 - c_m) c_m n_bar exp(-c_m n_bar) / Z): keeps only
    the K=1 term of the Poisson mixture, with the bound coverage integrated
    in closed form. A lower bound on the full offloading gain.
    """
    c = _checked_probs(policy, library)
    gain = float(np.sum(library.popularity * _k1_gain(c, cfg.n_bar, compute_Z(cfg))))
    return min(max(gain, 0.0), 1.0)
