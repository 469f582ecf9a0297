"""Fused solver kernels — the portable reference implementation.

These are the per-row, early-exit counterparts of the lockstep batch
solvers: one congestion fixed point per row (warm Newton, bracket
expansion, bisection/Illinois, Newton polish), the exponential-family
marginal-utility chain, and the fused best-response root loop. Each row
follows *exactly* the trajectory the NumPy lockstep path walks for that
row — same operations in the same order — so, evaluated with the same
scalar ``exp`` (libm here, via :mod:`math`), the results are bitwise
identical. That property is what the golden kernel-parity tests pin.

The module is plain loops over float64 arrays, scalar math and
out-parameters — the shape the C kernels in ``_kernels.c`` mirror. Run as
pure Python it is slow but exercises identical arithmetic; the
``pyloops`` backend runs it directly.

Batch drivers return failure *lists* (all failing rows with their last
bracket intervals), never raise: exception construction is the caller's
job (:mod:`repro.backend.dispatch`), so the C kernels can mirror them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "congestion_batch",
    "marginal_batch",
    "best_response_root",
    "exp_inplace",
    "pair_dot_batch",
]


def _safe_div(a: float, b: float) -> float:
    """IEEE-style division: ``b == 0`` yields a signed inf (or nan)."""
    if b != 0.0:
        return a / b
    return a * math.copysign(math.inf, b)


def _clamp0(v: float) -> float:
    """``np.maximum(v, 0.0)`` bit-for-bit: ``-0.0`` maps to ``+0.0``."""
    if v <= 0.0:
        return 0.0
    return v


def _sgn(v: float) -> int:
    """Sign of ``v`` as an int (works on numpy scalars in pure Python too)."""
    if v > 0.0:
        return 1
    if v < 0.0:
        return -1
    return 0


def exp_inplace(values, out):
    """Elementwise libm ``exp`` over a flat float64 array."""
    for k in range(values.shape[0]):
        out[k] = math.exp(values[k])


def pair_dot_batch(a, b, out):
    """Row-wise dot of two ``(B, N)`` matrices, sequential accumulation."""
    for row in range(a.shape[0]):
        acc = 0.0
        for k in range(a.shape[1]):
            acc += a[row, k] * b[row, k]
        out[row] = acc


# ----------------------------------------------------------------------
# the congestion fixed point, one row at a time
# ----------------------------------------------------------------------
# The gap closure is the exponential-family/linear-utilization fast path:
# g(phi) = phi*mu - sum_k m_k * peak_k * exp(-beta_k * phi).


def _gap_value(phi, m, beta, peak, mu):
    demand = 0.0
    for k in range(m.shape[0]):
        r = peak[k] * math.exp((-beta[k]) * phi)
        demand += m[k] * r
    return phi * mu - demand


def _gap_and_slope(phi, m, beta, peak, mu):
    demand = 0.0
    dslope = 0.0
    for k in range(m.shape[0]):
        r = peak[k] * math.exp((-beta[k]) * phi)
        demand += m[k] * r
        dslope += m[k] * ((-beta[k]) * r)
    return phi * mu - demand, mu - dslope


def _newton_row(x, m, beta, peak, mu, rtol, max_iter):
    """Safeguarded Newton; mirrors ``newton_polish_batch`` row-wise."""
    evals = 0
    for _ in range(max_iter):
        g, slope = _gap_and_slope(x, m, beta, peak, mu)
        evals += 1
        step = _safe_div(g, slope)
        informative = (
            math.isfinite(step) and math.isfinite(slope) and slope > 0.0
        )
        if informative:
            proposal = _clamp0(x - step)
        else:
            proposal = x
        delta = abs(proposal - x)
        x = proposal
        if informative and delta <= rtol * (1.0 + abs(x)):
            return x, True, evals
    return x, False, evals


def _expand_row(m, beta, peak, mu):
    """Geometric expansion; mirrors ``expand_bracket_batch`` row-wise."""
    f_lo = _gap_value(0.0, m, beta, peak, mu)
    evals = 1
    if f_lo >= 0.0:
        # Boundary root: collapsed bracket, resolved at lo by the caller.
        return 0.0, 0.0, f_lo, f_lo, True, evals, 0
    lo = 0.0
    width = 1.0
    hi = 1.0
    f_hi = f_lo
    expansions = 0
    for _ in range(200):
        f_probe = _gap_value(hi, m, beta, peak, mu)
        evals += 1
        expansions += 1
        f_hi = f_probe
        if f_probe >= 0.0:
            return lo, hi, f_lo, f_hi, True, evals, expansions
        lo = hi
        f_lo = f_probe
        width *= 2.0
        hi = lo + width
    return lo, hi, f_lo, f_hi, False, evals, expansions


def _bracket_row(lo, hi, f_lo, f_hi, m, beta, peak, mu, xtol, bisect_iters, max_iter):
    """Bisection + Illinois; mirrors ``bracketed_root_batch`` row-wise.

    The caller pre-resolves endpoint roots and collapsed brackets, so the
    row is pending on entry (``sign(f_lo) != sign(f_hi)``, both nonzero).
    """
    evals = 0
    for iteration in range(max_iter):
        if not (hi - lo) > xtol:
            break
        if iteration < bisect_iters:
            x = 0.5 * (lo + hi)
        else:
            denom = f_hi - f_lo
            secant = _safe_div(lo * f_hi - hi * f_lo, denom)
            if (not math.isfinite(secant)) or secant <= lo or secant >= hi:
                x = 0.5 * (lo + hi)
            else:
                x = secant
        fx = _gap_value(x, m, beta, peak, mu)
        evals += 1
        if fx == 0.0:
            # Exact hit: lockstep collapses the bracket onto the probe and
            # settles at its midpoint, which is the probe itself.
            return x, evals
        same_as_lo = _sgn(fx) == _sgn(f_lo)
        if same_as_lo:
            lo = x
            f_lo = fx
            if iteration >= bisect_iters:
                f_hi = 0.5 * f_hi
        else:
            hi = x
            f_hi = fx
            if iteration >= bisect_iters:
                f_lo = 0.5 * f_lo
    return 0.5 * (lo + hi), evals


def _congestion_row(m, beta, peak, mu, phi0, has_phi0, xtol_final):
    """One row of ``solve_population_batch``: warm Newton, then cold solve.

    Returns ``(phi, ok, bad_lo, bad_hi, evals, expansions)``; ``ok`` is
    False only on bracket-expansion failure, with the last interval in
    ``bad_lo``/``bad_hi``.
    """
    idle = True
    for k in range(m.shape[0]):
        if m[k] != 0.0:
            idle = False
            break
    if idle:
        return 0.0, True, 0.0, 0.0, 0, 0
    evals = 0
    expansions = 0
    if has_phi0:
        start = _clamp0(phi0)
        if not math.isfinite(start):
            start = 0.0
        warm, converged, ev = _newton_row(start, m, beta, peak, mu, 1e-15, 25)
        evals += ev
        if converged:
            return warm, True, 0.0, 0.0, evals, expansions
    lo, hi, f_lo, f_hi, closed, ev, ex = _expand_row(m, beta, peak, mu)
    evals += ev
    expansions += ex
    if not closed:
        return 0.0, False, lo, hi, evals, expansions
    hit_lo = (f_lo == 0.0) or (hi == lo)
    hit_hi = f_hi == 0.0
    if hit_lo:
        coarse = lo
    elif hit_hi:
        coarse = hi
    else:
        coarse, ev = _bracket_row(
            lo, hi, f_lo, f_hi, m, beta, peak, mu, 1e-6, 25, 30
        )
        evals += ev
    polished, converged, ev = _newton_row(coarse, m, beta, peak, mu, 1e-15, 40)
    evals += ev
    if not converged:
        # Stragglers re-bisect from the *original* bracket to full xtol.
        if hit_lo:
            polished = lo
        elif hit_hi:
            polished = hi
        else:
            polished, ev = _bracket_row(
                lo, hi, f_lo, f_hi, m, beta, peak, mu, xtol_final, 200, 200
            )
            evals += ev
    return polished, True, 0.0, 0.0, evals, expansions


def congestion_batch(
    populations,
    beta,
    peak,
    mu,
    phi0,
    has_phi0,
    xtol_final,
    phi_out,
    stats,
    fail_rows,
    fail_lo,
    fail_hi,
):
    """Solve every row's fixed point; returns the bracket-failure count.

    ``stats`` accumulates ``[residual_evals, brackets_expanded]``; failing
    rows land in ``fail_rows``/``fail_lo``/``fail_hi`` (first ``nfail``).
    """
    nfail = 0
    for b in range(populations.shape[0]):
        p0 = phi0[b] if has_phi0 else 0.0
        phi, ok, bad_lo, bad_hi, evals, expansions = _congestion_row(
            populations[b], beta, peak, mu, p0, has_phi0, xtol_final
        )
        stats[0] += evals
        stats[1] += expansions
        if ok:
            phi_out[b] = phi
        else:
            fail_rows[nfail] = b
            fail_lo[nfail] = bad_lo
            fail_hi[nfail] = bad_hi
            nfail += 1
            phi_out[b] = 0.0
    return nfail


# ----------------------------------------------------------------------
# the marginal-utility chain, one profile row at a time
# ----------------------------------------------------------------------
# Demand columns are ExponentialDemand (m = scale*e^{-alpha t}) or
# ScaledDemand over one (m = w * scale*e^{-alpha t}); ``scaled`` flags the
# latter per column. Operation order matches DemandTable._columns /
# the all-exponential fast path exactly (they agree element-wise).


def _marginal_row(
    srow,
    price,
    values,
    alpha,
    dscale,
    weight,
    scaled,
    beta,
    peak,
    mu,
    xtol_final,
    phi0,
    has_phi0,
    u_row,
    tmp_m,
    tmp_mi,
):
    """u(s) for one profile row; returns (phi, pop_ok, bracket_ok, ...)."""
    n = srow.shape[0]
    pop_ok = True
    for i in range(n):
        t = price - srow[i]
        e = math.exp((-alpha[i]) * t)
        mi = dscale[i] * e
        if scaled[i]:
            mm = weight[i] * mi
        else:
            mm = mi
        tmp_mi[i] = mi
        tmp_m[i] = mm
        if not math.isfinite(mm):
            pop_ok = False
    if not pop_ok:
        return 0.0, False, True, 0.0, 0.0, 0, 0
    phi, ok, bad_lo, bad_hi, evals, expansions = _congestion_row(
        tmp_m, beta, peak, mu, phi0, has_phi0, xtol_final
    )
    if not ok:
        return 0.0, True, False, bad_lo, bad_hi, evals, expansions
    dslope = 0.0
    for k in range(n):
        r = peak[k] * math.exp((-beta[k]) * phi)
        dslope += tmp_m[k] * ((-beta[k]) * r)
    slope = mu - dslope
    for i in range(n):
        r = peak[i] * math.exp((-beta[i]) * phi)
        dr = (-beta[i]) * r
        if scaled[i]:
            dpop = weight[i] * ((-alpha[i]) * tmp_mi[i])
        else:
            dpop = (-alpha[i]) * tmp_m[i]
        dm = -dpop
        dphi = _safe_div(r * dm, slope)
        dtheta = dm * r + (tmp_m[i] * dr) * dphi
        u_row[i] = (values[i] - srow[i]) * dtheta - tmp_m[i] * r
    return phi, True, True, 0.0, 0.0, evals, expansions


def marginal_batch(
    s,
    price,
    values,
    alpha,
    dscale,
    weight,
    scaled,
    beta,
    peak,
    mu,
    xtol_final,
    phi0,
    has_phi0,
    u_out,
    phi_out,
    stats,
    pop_rows,
    fail_rows,
    fail_lo,
    fail_hi,
):
    """u(s) for a (B, N) batch; returns (n_pop_bad, n_bracket_fail)."""
    n = s.shape[1]
    tmp_m = np.empty(n)
    tmp_mi = np.empty(n)
    npop = 0
    nfail = 0
    for b in range(s.shape[0]):
        p0 = phi0[b] if has_phi0 else 0.0
        phi, pop_ok, bracket_ok, bad_lo, bad_hi, evals, expansions = (
            _marginal_row(
                s[b],
                price,
                values,
                alpha,
                dscale,
                weight,
                scaled,
                beta,
                peak,
                mu,
                xtol_final,
                p0,
                has_phi0,
                u_out[b],
                tmp_m,
                tmp_mi,
            )
        )
        stats[0] += evals
        stats[1] += expansions
        phi_out[b] = phi
        if not pop_ok:
            pop_rows[npop] = b
            npop += 1
        elif not bracket_ok:
            fail_rows[nfail] = b
            fail_lo[nfail] = bad_lo
            fail_hi[nfail] = bad_hi
            nfail += 1
    return npop, nfail


# ----------------------------------------------------------------------
# the fused best-response root loop
# ----------------------------------------------------------------------


def _diag_marginals(
    own,
    sclip,
    price,
    values,
    alpha,
    dscale,
    weight,
    scaled,
    beta,
    peak,
    mu,
    xtol_final,
    phi_io,
    has_chain,
    out_f,
    trial,
    u_row,
    tmp_m,
    tmp_mi,
    stats,
):
    """Diagonal of u over the (N, N) trial batch; chains phi per row.

    Row ``i`` is the incoming (clipped) profile with entry ``i`` replaced
    by ``clip(own[i], 0, inf)``. Every row is evaluated every call — the
    warm-start chain is part of the observable trajectory, so rows are
    never skipped (this mirrors the lockstep batched evaluator exactly).
    Returns (status, bad_row): 0 ok, 2 bracket failure, 3 non-finite
    populations.
    """
    n = own.shape[0]
    for i in range(n):
        for j in range(n):
            trial[j] = sclip[j]
        trial[i] = _clamp0(own[i])
        p0 = phi_io[i] if has_chain else 0.0
        phi, pop_ok, bracket_ok, _bad_lo, _bad_hi, evals, expansions = (
            _marginal_row(
                trial,
                price,
                values,
                alpha,
                dscale,
                weight,
                scaled,
                beta,
                peak,
                mu,
                xtol_final,
                p0,
                has_chain,
                u_row,
                tmp_m,
                tmp_mi,
            )
        )
        stats[0] += evals
        stats[1] += expansions
        if not pop_ok:
            return 3, i
        if not bracket_ok:
            return 2, i
        phi_io[i] = phi
        out_f[i] = u_row[i]
    return 0, -1


def best_response_root(
    s,
    price,
    values,
    alpha,
    dscale,
    weight,
    scaled,
    beta,
    peak,
    mu,
    xtol_final,
    cap,
    phi_io,
    has_chain,
    root_xtol,
    responses,
    u_zero,
    u_cap,
    stats,
):
    """All players' best responses via the fused per-row root loop.

    Mirrors ``best_response_profile_vectorized`` + its
    ``bracketed_root_batch`` call (bisect_iters=6, max_iter=100): corner
    classification from the u(0)/u(cap) evaluations, then Illinois root
    iterations in which *every* row is evaluated at its probe (pending) or
    current root (settled) — the phi chain sees the same trial sequence as
    the lockstep path. Returns (status, bad_row): 0 ok, 2 bracket
    failure inside a congestion solve, 3 non-finite populations. Corner
    finiteness is the caller's check (``u_zero``/``u_cap`` are outputs).
    """
    n = s.shape[0]
    sclip = np.empty(n)
    hi = np.empty(n)
    for i in range(n):
        sclip[i] = _clamp0(s[i])
        hi[i] = cap if cap < values[i] else values[i]
        responses[i] = 0.0
    trial = np.empty(n)
    u_row = np.empty(n)
    tmp_m = np.empty(n)
    tmp_mi = np.empty(n)

    own = np.zeros(n)
    status, bad = _diag_marginals(
        own, sclip, price, values, alpha, dscale, weight, scaled, beta,
        peak, mu, xtol_final, phi_io, has_chain, u_zero, trial, u_row,
        tmp_m, tmp_mi, stats,
    )
    if status != 0:
        return status, bad
    for i in range(n):
        own[i] = hi[i] if hi[i] > 0.0 else 0.0
    status, bad = _diag_marginals(
        own, sclip, price, values, alpha, dscale, weight, scaled, beta,
        peak, mu, xtol_final, phi_io, 1, u_cap, trial, u_row,
        tmp_m, tmp_mi, stats,
    )
    if status != 0:
        return status, bad

    interior = np.zeros(n, np.uint8)
    pending = np.zeros(n, np.uint8)
    any_interior = False
    for i in range(n):
        playable = hi[i] > 0.0
        at_cap = playable and u_cap[i] >= 0.0
        if at_cap:
            responses[i] = hi[i]
        if playable and u_zero[i] > 0.0 and not at_cap:
            interior[i] = 1
            pending[i] = 1
            any_interior = True
    if not any_interior:
        return 0, -1

    lo_a = np.zeros(n)
    hi_a = hi.copy()
    f_lo = u_zero.copy()
    f_hi = u_cap.copy()
    root = np.zeros(n)
    probe = np.empty(n)
    f = np.empty(n)
    for iteration in range(100):
        n_pending = 0
        for i in range(n):
            if pending[i] and not (hi_a[i] - lo_a[i]) > root_xtol:
                pending[i] = 0
            if pending[i]:
                n_pending += 1
        if n_pending == 0:
            break
        for i in range(n):
            if pending[i]:
                if iteration < 6:
                    x = 0.5 * (lo_a[i] + hi_a[i])
                else:
                    denom = f_hi[i] - f_lo[i]
                    secant = _safe_div(
                        lo_a[i] * f_hi[i] - hi_a[i] * f_lo[i], denom
                    )
                    if (
                        (not math.isfinite(secant))
                        or secant <= lo_a[i]
                        or secant >= hi_a[i]
                    ):
                        x = 0.5 * (lo_a[i] + hi_a[i])
                    else:
                        x = secant
                probe[i] = x
            else:
                probe[i] = root[i]
        status, bad = _diag_marginals(
            probe, sclip, price, values, alpha, dscale, weight, scaled,
            beta, peak, mu, xtol_final, phi_io, 1, f, trial, u_row,
            tmp_m, tmp_mi, stats,
        )
        if status != 0:
            return status, bad
        for i in range(n):
            if not pending[i]:
                continue
            fx = f[i]
            if fx == 0.0:
                root[i] = probe[i]
                lo_a[i] = probe[i]
                hi_a[i] = probe[i]
                pending[i] = 0
                continue
            same_as_lo = _sgn(fx) == _sgn(f_lo[i])
            if same_as_lo:
                lo_a[i] = probe[i]
                f_lo[i] = fx
                if iteration >= 6:
                    f_hi[i] = 0.5 * f_hi[i]
            else:
                hi_a[i] = probe[i]
                f_hi[i] = fx
                if iteration >= 6:
                    f_lo[i] = 0.5 * f_lo[i]
    for i in range(n):
        if interior[i]:
            responses[i] = 0.5 * (lo_a[i] + hi_a[i])
    return 0, -1
