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
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special
from scipy.interpolate import PPoly, make_interp_spline

from .model import CachingPolicy, ContentLibrary, NetworkConfig

__all__ = [
    "QuadratureSpec",
    "CoverageResult",
    "NumericalError",
    "rician_pdf",
    "zeta_kernel",
    "laplace_exact",
    "laplace_ppp_bound",
    "laplace_fn_exact",
    "coverage_content",
    "compute_Z",
    "offloading_gain",
    "offloading_closed_form_k1",
]

COVERAGE_METHODS = ("exact-tcp", "ppp-bound", "closed-form-k1")

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
# processes sharing this one's CPUs (_share_cpus)
_cpu_share = 1


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
        Residual Poisson mass at which the caterer-count sum is cut.
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
        if not 0.0 < self.k_max_tail_mass < 1.0:
            raise ValueError(
                f"k_max_tail_mass must lie in (0, 1), got {self.k_max_tail_mass!r}")
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
    """This process's share of the CPUs it may run on: its affinity mask
    where the platform has one, else the machine's CPU count, divided among
    the _cpu_share processes that run beside it."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, cpus // _cpu_share)


def _share_cpus(processes: int) -> None:
    """Process-pool initializer: this process is one of `processes` that
    share its CPUs, so each takes its own part of them for threads."""
    global _cpu_share
    _cpu_share = processes


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
    """Gamma(1 + 2/alpha) * Gamma(1 - 2/alpha), finite for alpha > 2."""
    if alpha <= 2:
        raise ValueError(f"path-loss exponent must exceed 2, got {alpha!r}")
    return math.gamma(1.0 + 2.0 / alpha) * math.gamma(1.0 - 2.0 / alpha)


def rician_pdf(u, v, sigma):
    """Rician density of the distance u to a point Gaussian-displaced from
    a center at distance v, displacement std sigma per axis.

    Evaluated as (u/sigma^2) exp(-(u-v)^2 / 2 sigma^2) i0e(u v / sigma^2),
    where i0e is the exponentially scaled modified Bessel function; the
    rescaling keeps the product finite for arbitrarily large u v / sigma^2.
    Accepts scalars or broadcastable arrays.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma!r}")
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


def _panel_rule(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights over consecutive panels."""
    x, w = leggauss(order)
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
    distance v[i]. Rows are computed elementwise in blocks (block), which
    add puts below the rows held, so a row's values do not depend on its
    block. Evaluations only read the blocks, so threads may share one
    instance, and rows added during an evaluation do not disturb it.
    """

    def __init__(self, v, cfg: NetworkConfig, half_width: float, order: int):
        self._cfg, self._half_width = cfg, half_width
        self._s_nodes, self._s_weights = _u_template(order)
        self._blocks = []  # (u**alpha, Rician density, inner weights) per block
        self.rows = 0
        # center distances per evaluation step: a kernel buffer of about 1 MB
        self._step = max(1, _ZETA_BUFFER // self._s_nodes.size)
        self.add(self.block(v))

    def block(self, v) -> tuple:
        """The rows of center distances v, for add."""
        lo = np.maximum(v - self._half_width, 0.0)
        span = v + self._half_width - lo
        u = span[:, None] * self._s_nodes[None, :]
        u += lo[:, None]
        wu = span[:, None] * self._s_weights[None, :]
        rician = rician_pdf(u, v[:, None], self._cfg.sigma)
        # where u**alpha overflows to inf the kernel t/(inf + t) is exactly 0
        with np.errstate(over="ignore"):
            u **= self._cfg.alpha
        return u, rician, wu

    def add(self, block) -> None:
        """Put a block's rows below the rows held."""
        self._blocks.append(block)
        self.rows += block[0].shape[0]

    def __call__(self, t_gamma, rows=None):
        """zeta at one t_gamma for the first `rows` center distances (all by default)."""
        rows = self.rows if rows is None else rows
        zeta = np.empty(rows)
        kernel = np.empty((min(rows, self._step), self._s_nodes.size))
        offset = 0  # first row of the block
        for u_alpha, rician, wu in self._blocks:
            for start in range(0, min(u_alpha.shape[0], rows - offset), self._step):
                part = slice(start, min(start + self._step, u_alpha.shape[0], rows - offset))
                buf = kernel[:part.stop - start]
                np.add(u_alpha[part], t_gamma, out=buf)
                np.divide(t_gamma, buf, out=buf)
                # multiply in this order: pre-multiplying density and weight moves
                # the last bit of small-t transforms, whose frozen references
                # resolve it
                buf *= rician[part]
                buf *= wu[part]
                buf.sum(axis=1, out=zeta[offset + part.start:offset + part.stop])
            offset += u_alpha.shape[0]
            if offset >= rows:
                break
        return np.clip(zeta, 0.0, 1.0, out=zeta)


def zeta_kernel(v, t_gamma: float, cfg: NetworkConfig, quad: QuadratureSpec):
    """Mean SIR-kernel mass contributed by one cluster at center distance v.

    zeta(v, t) = integral over u of [t_gamma / (u^alpha + t_gamma)] times the
    Rician density of the member distance u given center distance v. Lies in
    [0, 1]. Vectorized over v; scalar v returns a float.

    Raises NumericalError when the embedded two-order quadrature check
    disagrees beyond tolerance.
    """
    if t_gamma < 0:
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


class _OuterGrid:
    """The t-independent half of _exponents_exact for one (cfg, quad,
    v_inner): the outer panel edges over the cluster-center distance and,
    per Gauss order, the nodes, weights and zeta rows (_ZetaRows) on them.

    The edges are nested: linear panels across the window, log panels up to
    the t-independent radius floor, then _TAIL_PANELS_PER_DECADE log panels
    per decade beyond it, edge j of these at v_floor 10^(j/4). A far-field
    grid (v_inner > 0) keeps only the edges beyond v_inner, with v_inner as
    its first edge, and holds the rows of its near-disc term as well
    (exponent). A t_gamma integrates over the prefix of the grid up to its
    own truncation radius, rounded up to a panel edge (exponent). The grid
    grows only by the panels a new t needs, and every edge, node, weight
    and row is computed elementwise, so a grown grid equals one built at
    its final size, bit for bit: a t's exponent does not depend on which t
    grew the grid, nor on how the nodes are spread over threads. Growth
    appends row blocks under a lock, so threads may integrate and grow one
    grid at once.

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

    def __init__(self, cfg: NetworkConfig, quad: QuadratureSpec, v_inner: float = 0.0):
        self.cfg, self.quad, self.v_inner = cfg, quad, v_inner
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
            from scipy.stats import ncx2  # 0.5 s to import, so only where needed

            self._near = []
            for order in (_ORDER_FINE, _ORDER_COARSE):
                r, w = _panel_rule(r_edges, order)
                marcum = ncx2.sf((v_inner / cfg.sigma) ** 2, 2, (r / cfg.sigma) ** 2)
                self._near.append((order, r**cfg.alpha, w * marcum * r))
        self.base_edges = base_edges
        self.edges = base_edges[:1]  # the edges held: none of the panels yet
        # fine, then coarse: (order, nodes, weights, zeta rows) of the panels held
        fine = _ORDER_FINE if v_inner == 0 else _ORDER_FAR_FINE
        self._rules = [(order, np.empty(0), np.empty(0),
                        _ZetaRows(np.empty(0), cfg, half_width, order))
                       for order in (fine, _ORDER_COARSE)]
        self._growth = threading.Lock()  # held while the grid grows (_grow)

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

    def extent(self, t_gamma) -> int:
        """Log panels beyond the floor that every t in t_gamma integrates
        over: those of the largest t, as the truncation radius rises with t."""
        return self.truncation(max(t_gamma))[2] if len(t_gamma) else 0

    def _grow(self, n_extra: int) -> None:
        """Make the grid hold at least n_extra log panels beyond the floor,
        building only the panels it lacks. Under the lock: a thread that
        needs panels another thread is building waits for them. The grid
        changes only once every part of the growth is built, the edges
        last, so a growth that raises leaves it as it was, and a grid whose
        edges suffice needs no lock."""
        if self.edges.size >= self.base_edges.size + n_extra:
            return
        with self._growth:
            held, n_base = self.edges.size - 1, self.base_edges.size - 1
            if held >= n_base + n_extra:
                return
            edges = np.concatenate([
                self.base_edges,
                self.v_floor * 10.0 ** (np.arange(1, n_extra + 1) / _TAIL_PANELS_PER_DECADE),
            ])
            more = []
            for order, *_, zeta_rows in self._rules:
                v_nodes, v_weights = _panel_rule(edges[held:], order)
                more.append((v_nodes, v_weights, zeta_rows.block(v_nodes)))
            rules = []
            for (order, v_nodes, v_weights, zeta_rows), (more_nodes, more_weights, block) \
                    in zip(self._rules, more):
                # the 1-D nodes and weights are joined, the zeta rows added
                zeta_rows.add(block)
                rules.append((order, np.concatenate([v_nodes, more_nodes]),
                              np.concatenate([v_weights, more_weights]), zeta_rows))
            self._rules, self.edges = rules, edges

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

    def exponent(self, t: float, extent: int = 0) -> tuple[float, float]:
        """(exponent, error estimate) of _exponents_exact at one t_gamma > 0,
        on this grid, grown first to t's truncation radius and at least
        `extent` log panels beyond the floor (the same value either way)."""
        cfg = self.cfg
        lam, n_bar = cfg.lambda_p, cfg.n_bar
        e_ppp, tail_coeff, n_extra = self.truncation(t)
        self._grow(max(n_extra, extent))
        n_panels = self.base_edges.size - 1 + n_extra
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
                     v_inner: float = 0.0, grid: _OuterGrid | None = None):
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

    The t-independent half, the outer grid with its zeta rows, is an
    _OuterGrid: a fresh one, or `grid`, one held for the same (cfg, quad,
    v_inner) across batches (_ExponentLattice). It is grown on the calling
    thread to the batch's largest truncation radius, and the per-t
    integrals are then spread over the threads (_thread_map). A t's result
    does not depend on the other members of the batch, on the grid's
    earlier growth, nor on the thread count.

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
    if grid is None:
        grid = _OuterGrid(cfg, quad, v_inner)
    t_gamma = list(np.asarray(t_gamma, dtype=float))
    grid._grow(grid.extent(t_gamma))
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
    scalar calls.
    """
    t_arr = np.atleast_1d(np.asarray(t_gamma, dtype=float))
    if np.any(t_arr < 0):
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
    n_bar lambda_p. Never exceeds laplace_exact. Vectorized.
    """
    t_arr = np.asarray(t_gamma, dtype=float)
    if np.any(t_arr < 0):
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
    (cfg, quad, v_inner).

    The lattice holds the quadrature grid of its nodes (_OuterGrid), grown
    only by the panels a new node needs, and the node values by lattice
    index. A node has the same value, bit for bit, whatever batch or thread
    computes it and however the grid grew, so a table over a window of the
    lattice is a pure function of (cfg, quad, v_inner, window), whatever
    calls came before it. One lattice can serve every call at the same
    configuration; a caller that builds its own pays for its window's
    nodes, as a one-off table would.
    """

    def __init__(self, cfg: NetworkConfig, quad: QuadratureSpec, v_inner: float = 0.0):
        self.cfg, self.quad, self.v_inner = cfg, quad, v_inner
        self._grid = _OuterGrid(cfg, quad, v_inner)
        self._nodes = {}  # lattice index -> (exponent, error estimate)

    @staticmethod
    def _window(t_lo, t_hi) -> range:
        """Lattice indices of a table over [t_lo, t_hi], padded by
        _TABLE_PAD and rounded out to lattice nodes (at least 8)."""
        j_lo = math.floor(_TABLE_NODES_PER_DECADE * math.log10(t_lo / _TABLE_PAD))
        j_hi = math.ceil(_TABLE_NODES_PER_DECADE * math.log10(t_hi * _TABLE_PAD))
        short = max(0, 8 - (j_hi - j_lo + 1))
        return range(j_lo - short // 2, j_hi + short - short // 2 + 1)

    def missing(self, t_lo, t_hi) -> list[int]:
        """Lattice indices that table(t_lo, t_hi) needs and the lattice lacks."""
        return [j for j in self._window(t_lo, t_hi) if j not in self._nodes]

    def node_tasks(self, indices) -> list:
        """One task per lattice index: a callable that returns the node's
        (exponent, error estimate), for the caller to keep (add). The first
        task to run grows the lattice's grid for all of them, under its
        lock, so threads may run the tasks in any order."""
        t_gamma = [np.float64(_lattice_t(j)) for j in indices]
        extent = self._grid.extent(t_gamma)
        return [partial(self._grid.exponent, t, extent) for t in t_gamma]

    def add(self, indices, nodes) -> None:
        """Keep the values `nodes` (from node) of the lattice indices."""
        self._nodes.update(zip(indices, nodes))

    def table(self, t_lo, t_hi, log: bool = False):
        """Exact exponents tabulated over [t_lo, t_hi], padded by _TABLE_PAD
        and rounded out to lattice nodes (at least 8).

        Computes the window's missing nodes in one _exponents_exact batch on
        the lattice's grid and joins the window's nodes in ln t by a
        degree-5 interpolating spline of ln E (log=True) or of E itself.
        Over t_gamma in [1e-8, 1e9] at alpha 2.5, 3 and 4 it moves L by under
        2.6e-10, less than a cubic at 24 nodes per decade. The
        piecewise-polynomial form evaluates about twice as fast as the
        B-spline one. Returns (spline, t_nodes, error_estimates).
        """
        window = self._window(t_lo, t_hi)
        missing = self.missing(t_lo, t_hi)
        if missing:
            exponents, errors = _exponents_exact(
                np.array([_lattice_t(j) for j in missing]), self.cfg, self.quad, self.v_inner,
                self._grid)
            self.add(missing, zip(exponents.tolist(), errors.tolist()))
        t_nodes = np.array([_lattice_t(j) for j in window])
        exponents, errors = np.array([self._nodes[j] for j in window]).T
        if log and np.any(exponents <= 0):
            raise NumericalError("non-positive exponent in spline table")
        y = np.log(exponents) if log else exponents
        spline = PPoly.from_spline(make_interp_spline(np.log(t_nodes), y, k=5))
        return spline, t_nodes, errors


def _eval_table(table: PPoly, x: np.ndarray, name: str, out=None) -> np.ndarray:
    """An _ExponentLattice table at x = ln t_gamma, equal to table(x) bit for
    bit, written to out (a new array by default; out may be x itself).
    Raises ValueError for a value outside the table (or NaN) rather than
    extrapolate.

    PPoly.__call__ holds the GIL; this kernel is plain numpy, which
    releases it. A point's interval is the one whose breakpoints bracket
    it, x[i] <= x < x[i+1], and the last one at the table's top end. Every
    breakpoint sits on the node lattice (spacing _LATTICE_STEP in ln t), so
    the interval holding the point's lattice cell is right up to a rounding
    step across a node, which one comparison with the neighbouring
    breakpoint on each side corrects. (np.searchsorted finds the same
    intervals, but on 6.2M unsorted points it took 0.51 s against this
    lookup's 0.15 s, and PPoly's 0.38 s, on one core of a Xeon VM.) The
    polynomial is PPoly's own ascending power sum: starting from 0, add
    c[k-1-m] s^m for m = 0..k-1, where s is the offset from the interval's
    left breakpoint and s^m is formed by repeated multiplication. Points go
    through in slices of _EVAL_SLICE, so the scratch arrays stay small and
    are reused.
    """
    bp, c = table.x, table.c
    if not (x.min() >= bp[0] and x.max() <= bp[-1]):
        raise ValueError(f"t_gamma outside the {name} table")
    n_cells = int((bp[-1] - bp[0]) / _LATTICE_STEP) + 2
    cell_mid = bp[0] + _LATTICE_STEP * (np.arange(n_cells) + 0.5)
    interval_of_cell = np.minimum(np.searchsorted(bp, cell_mid, side="right") - 1,
                                  bp.size - 2)
    # the repeated end knots bound zero-width intervals; at the top end
    # PPoly takes the last of them
    proper = np.arange(bp.size)
    proper[bp == bp[-1]] = bp.size - 2
    # PPoly's sum starts from 0.0, which turns a -0.0 constant term into 0.0
    constant = c[-1] + 0.0
    if out is None:
        out = np.empty_like(x)
    size = min(x.size, _EVAL_SLICE)
    scratch = (np.empty(size, np.intp), np.empty(size, np.intp), np.empty(size),
               np.empty(size), np.empty(size), np.empty(size, bool))
    for start in range(0, x.size, _EVAL_SLICE):
        xs, o = x[start:start + _EVAL_SLICE], out[start:start + _EVAL_SLICE]
        cell, i, g, s, power, step = (a[:xs.size] for a in scratch)
        np.subtract(xs, bp[0], out=g)
        g /= _LATTICE_STEP
        np.minimum(g, n_cells - 1, out=g)
        cell[...] = g  # truncation is the floor: g >= 0
        np.take(interval_of_cell, cell, out=i, mode="clip")
        np.take(bp, i, out=g, mode="clip")
        i -= np.less(xs, g, out=step)
        np.take(bp, i + 1, out=g, mode="clip")
        i += np.greater_equal(xs, g, out=step)
        interval = np.take(proper, i, out=cell, mode="clip")
        np.take(bp, interval, out=g, mode="clip")
        np.subtract(xs, g, out=s)
        # xs is read for the last time above, so o may share its memory
        np.take(constant, interval, out=o, mode="clip")
        power[...] = s
        for m in range(c.shape[0] - 2, -1, -1):
            np.take(c[m], interval, out=g, mode="clip")
            g *= power
            o += g
            if m:
                power *= s
    return out


def laplace_fn_exact(cfg: NetworkConfig, quad: QuadratureSpec, t_range):
    """Vectorized evaluator of the exact transform, built once over
    t_range = (lo, hi) and then evaluated at millions of points.

    A log-log quintic table of the exponent over its own lattice
    (_ExponentLattice). The evaluator raises ValueError for a positive
    t_gamma outside the padded table instead of extrapolating.
    """
    table, _, _ = _ExponentLattice(cfg, quad).table(*t_range, log=True)

    def laplace(t_gamma):
        t_arr = np.asarray(t_gamma, dtype=float)
        t_flat = np.atleast_1d(t_arr)
        out = np.ones_like(t_flat)
        pos = t_flat > 0
        if pos.any():
            # in place, so that one batch-sized temporary serves every step
            x = np.log(t_flat[pos])
            _eval_table(table, x, "exact transform", out=x)
            np.exp(x, out=x)
            np.negative(x, out=x)
            out[pos] = np.exp(x, out=x)
        return float(out[0]) if t_arr.ndim == 0 else out

    return laplace


def _caterer_means(k_max: int, cfg: NetworkConfig, quad: QuadratureSpec, laplace_fn=None):
    """Per-k quasi-Monte-Carlo means of L(theta / S_k), k = 1..k_max.

    Row i of n = quad.mc_integration_samples scrambled-Sobol rows (seed
    quad.qmc_seed) holds k_max i.i.d. pairwise distances
    h_ij ~ Rayleigh(sqrt(2) sigma), and S_k = sum of h_ij^-alpha over its
    first k. Rows are drawn and transformed in blocks of _QMC_BLOCK_ROWS,
    so the only n x k_max array is `lap`: it holds t_gamma, and then
    L(t_gamma) in place. laplace_fn defaults to the exact transform, built
    once over the draw's t_gamma range. Returns three length-k_max arrays:
    the means over all rows, over rows [0, n//2) and over rows [n//2, n).
    They are numpy's own axis-0 means of `lap`, so they equal those of a
    whole-array evaluation bit for bit (at k_max = 1 that reduction is
    pairwise, not row by row, so block sums carried forward would not).

    The blocks are split into one contiguous run per thread (_thread_map).
    Each run draws from its own engine with the same seed, fast-forwarded
    to the run's first row, so every row, and so every mean, is the same
    at any thread count. A non-finite transform raises NumericalError for
    the lowest bad block, with that block's index, rows and first bad k.
    """
    from scipy.stats import qmc  # 0.5 s to import, so only where needed

    n = quad.mc_integration_samples
    blocks = [slice(start, min(start + _QMC_BLOCK_ROWS, n))
              for start in range(0, n, _QMC_BLOCK_ROWS)]
    n_runs = _threads(len(blocks))
    runs = [range(len(blocks) * r // n_runs, len(blocks) * (r + 1) // n_runs)
            for r in range(n_runs)]
    lap = np.empty((n, k_max))

    def draw(run):
        engine = qmc.Sobol(d=k_max, scramble=True, seed=quad.qmc_seed)
        if blocks[run[0]].start:
            engine.fast_forward(blocks[run[0]].start)
        t_lo, t_hi = math.inf, 0.0
        for rows in (blocks[i] for i in run):
            h = engine.random(rows.stop - rows.start)
            np.clip(h, 1e-16, 1.0 - 1e-16, out=h)
            # h = 2 sigma sqrt(-log1p(-unit)), then h^-alpha, in place
            np.negative(h, out=h)
            np.log1p(h, out=h)
            np.negative(h, out=h)
            np.sqrt(h, out=h)
            np.multiply(2.0 * cfg.sigma, h, out=h)
            h **= -cfg.alpha
            # column k-1: the first k caterers
            np.cumsum(h, axis=1, out=h)
            t_gamma = np.divide(cfg.theta, h, out=lap[rows])
            t_lo, t_hi = min(t_lo, float(t_gamma.min())), max(t_hi, float(t_gamma.max()))
        return t_lo, t_hi

    def transform(run):
        for i in run:
            block = lap[blocks[i]]
            block[...] = laplace_fn(block.ravel()).reshape(block.shape)
            bad = np.flatnonzero(~np.isfinite(block.sum(axis=0)))
            if bad.size:
                raise NumericalError(
                    "non-finite Laplace transform in the coverage estimator",
                    diagnostics={"block": i, "rows": (blocks[i].start, blocks[i].stop),
                                 "k": int(bad[0]) + 1},
                )

    with warnings.catch_warnings():
        # the sample count is a user-set budget, not forced to a power of two;
        # consecutive draws continue one Sobol sequence
        warnings.simplefilter("ignore", UserWarning)
        t_ranges = _thread_map(draw, runs)
    if laplace_fn is None:
        t_lo, t_hi = min(lo for lo, _ in t_ranges), max(hi for _, hi in t_ranges)
        laplace_fn = laplace_fn_exact(cfg, quad, t_range=(t_lo, t_hi))
    _thread_map(transform, runs)
    half = n // 2
    return lap.mean(axis=0), lap[:half].mean(axis=0), lap[half:].mean(axis=0)


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
    are streamed in blocks, so the call holds one n x k_max array plus a
    few block-sized temporaries; value and error equal those of the
    whole-array estimator bit for bit.
    """
    if not 0.0 <= c_m <= 1.0:
        raise ValueError(f"caching probability must lie in [0,1], got {c_m!r}")
    if method not in ("exact-tcp", "ppp-bound"):
        raise ValueError(f"method must be 'exact-tcp' or 'ppp-bound', got {method!r}")
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


def _checked_probs(policy: CachingPolicy, library: ContentLibrary) -> np.ndarray:
    c = policy.probs
    if c.size != library.n_files:
        raise ValueError(
            f"policy length {c.size} does not match library size {library.n_files}"
        )
    if np.any(c < 0) or np.any(c > 1):
        raise ValueError("caching probabilities must lie in [0,1]")
    return c


def offloading_gain(policy: CachingPolicy, library: ContentLibrary, coverage_fn) -> float:
    """Request-weighted offloading probability of a caching policy.

    sum_m q_m (c_m + (1 - c_m) coverage_fn(c_m)). coverage_fn maps a caching
    probability to a coverage value (floats and CoverageResult both accepted)
    and is called once per distinct c_m. The budget constraint is the
    caller's concern; only the box constraint is enforced here.
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
