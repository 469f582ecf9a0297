"""Golden reference for two-carrier competition.

:class:`LegacyDuopoly` is the original scalar two-carrier price
competition, kept as a standalone reference implementation: in-process
best-response searches over nested scalar equilibrium solves, a two-term
logit share and its own warm-start chain. ``OligopolyGame`` with two
carriers routes every search through the solve service and must reproduce
it bit for bit — here and in ``test_oligopoly.py``.
"""

import math
from typing import NamedTuple

import numpy as np

from repro.competition import (
    IterationPolicy,
    OligopolyGame,
    solve_oligopoly_competition,
)
from repro.core.equilibrium import EquilibriumResult, solve_equilibrium
from repro.core.game import SubsidizationGame
from repro.engine import SolveCache, SolveService
from repro.exceptions import ConvergenceError
from repro.network.demand import ScaledDemand
from repro.providers import AccessISP, ContentProvider, Market, exponential_cp
from repro.solvers.scalar_opt import grid_polish_maximize


def providers():
    return [
        exponential_cp(2.0, 2.0, value=1.0),
        exponential_cp(5.0, 3.0, value=0.6),
    ]


class LegacyState(NamedTuple):
    prices: tuple[float, float]
    shares: tuple[float, float]
    equilibria: tuple[EquilibriumResult, EquilibriumResult]
    revenues: tuple[float, float]
    welfare: float


class LegacyCompetition(NamedTuple):
    state: LegacyState
    iterations: int
    residual: float


class LegacyDuopoly:
    """The scalar two-carrier competition: two ISPs, one logit user base."""

    def __init__(self, cps, isp_a, isp_b, *, switching=2.0, cap=0.0):
        self.providers = tuple(cps)
        self.isps = (isp_a, isp_b)
        self.switching = float(switching)
        self.cap = float(cap)
        self._warm = {}

    def shares(self, price_a, price_b):
        za, zb = -self.switching * price_a, -self.switching * price_b
        top = max(za, zb)
        ea, eb = math.exp(za - top), math.exp(zb - top)
        w_a = ea / (ea + eb)
        return (w_a, 1.0 - w_a)

    def carrier_market(self, index, prices):
        w = self.shares(*prices)[index]
        scaled = [
            ContentProvider(
                demand=ScaledDemand(cp.demand, w),
                throughput=cp.throughput,
                value=cp.value,
                name=cp.name,
            )
            for cp in self.providers
        ]
        return Market(scaled, self.isps[index].with_price(prices[index]))

    def _equilibrium(self, index, prices):
        equilibrium = solve_equilibrium(
            SubsidizationGame(self.carrier_market(index, prices), self.cap),
            initial=self._warm.get(index),
        )
        self._warm[index] = equilibrium.subsidies
        return equilibrium

    def best_response_price(
        self, index, rival_price, *, price_range=(0.0, 3.0), grid_points=32,
        xtol=1e-7,
    ):
        def revenue(p):
            prices = (p, rival_price) if index == 0 else (rival_price, p)
            return self._equilibrium(index, prices).state.revenue

        return grid_polish_maximize(
            revenue, price_range[0], price_range[1],
            grid_points=grid_points, xtol=xtol,
        ).x

    def solve(self, price_a, price_b):
        prices = (float(price_a), float(price_b))
        shares = self.shares(*prices)
        equilibria = (self._equilibrium(0, prices), self._equilibrium(1, prices))
        return LegacyState(
            prices=prices,
            shares=shares,
            equilibria=equilibria,
            revenues=(equilibria[0].state.revenue, equilibria[1].state.revenue),
            welfare=sum(eq.state.welfare for eq in equilibria),
        )

    def compete(
        self, *, initial_prices=(1.0, 1.0), price_range=(0.0, 3.0),
        damping=0.7, tol=1e-5, max_sweeps=60, grid_points=32, xtol=1e-7,
    ):
        """Damped Gauss-Seidel best-response iteration on the prices."""
        prices = [float(initial_prices[0]), float(initial_prices[1])]
        largest_change = np.inf
        for sweep in range(1, max_sweeps + 1):
            largest_change = 0.0
            for k in range(2):
                response = self.best_response_price(
                    k, prices[1 - k], price_range=price_range,
                    grid_points=grid_points, xtol=xtol,
                )
                step = damping * (response - prices[k])
                largest_change = max(largest_change, abs(step))
                prices[k] += step
            if largest_change <= tol:
                return LegacyCompetition(
                    self.solve(prices[0], prices[1]), sweep, largest_change
                )
        raise ConvergenceError(
            "reference competition not converged",
            iterations=max_sweeps,
            residual=largest_change,
        )


def assert_states_bitwise_equal(a, b):
    assert a.prices == b.prices
    assert a.shares == b.shares
    assert a.revenues == b.revenues
    assert a.welfare == b.welfare
    for k in range(2):
        assert (
            a.equilibria[k].subsidies.tobytes()
            == b.equilibria[k].subsidies.tobytes()
        )


def _isps():
    return (
        AccessISP(price=1.0, capacity=0.5, name="isp-a"),
        AccessISP(price=1.0, capacity=0.5, name="isp-b"),
    )


def _legacy():
    return LegacyDuopoly(providers(), *_isps(), switching=2.0, cap=0.3)


def _routed():
    return OligopolyGame(
        providers(), _isps(), switching=2.0, cap=0.3,
        service=SolveService(cache=SolveCache()),
    )


class TestEnginePathGolden:
    """Golden: the service-routed N=2 search == the scalar reference."""

    def test_best_response_price_bitwise_parity(self):
        legacy, routed = _legacy(), _routed()
        for index, rival in ((0, 1.1), (1, 0.7), (0, 0.9)):
            prices = (1.0, rival) if index == 0 else (rival, 1.0)
            expected = legacy.best_response_price(
                index, rival, price_range=(0.05, 2.0), grid_points=12
            )
            actual = routed.best_response_price(
                index, prices, price_range=(0.05, 2.0), grid_points=12
            )
            assert actual == expected

    def test_price_competition_bitwise_parity(self):
        old = _legacy().compete(
            tol=1e-4, grid_points=12, price_range=(0.05, 2.0)
        )
        new = solve_oligopoly_competition(
            _routed(), grid_points=12, price_range=(0.05, 2.0),
            policy=IterationPolicy(tol=1e-4),
        )
        assert new.iterations == old.iterations
        assert new.residual == old.residual
        assert_states_bitwise_equal(new.state, old.state)
