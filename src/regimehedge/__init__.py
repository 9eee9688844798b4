"""Pricing and hedging of European basket claims in a market whose
coefficients are modulated by independent age-dependent semi-Markov
components, with time-inhomogeneous volatility.

The price field solves a second-kind Volterra fixed-point equation built
from the components' competing-jump laws and the inter-jump lognormal
kernel; a Monte Carlo pricer from the exact stochastic representation
serves as the independent oracle; hedge ratios come from differentiating
the pricing operator under the integral sign; sensitivity and residual-risk
diagnostics complete the toolkit.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionTooLarge,
    NoConvergence,
    RegimeHedgeError,
    RootFindFailure,
    SingularCovariance,
    TruncationFailure,
)
from .market import Claim, MarketModel, TimeCoeff, build_market
from .semi_markov import CsmState, HazardModel, SwitchBlock, simulate_csm
from .volterra_pricer import (
    ConvergenceReport,
    Grid,
    GridSpec,
    PriceField,
    SolverSettings,
    linear_growth_norm,
    pde_residual,
    solve_price_field,
)
from .mc_oracle import mc_price
from .hedging import HedgeField, hedge_field, strategy_at
from .analysis import (
    ResidualRiskReport,
    SensitivityReport,
    residual_risk,
    sensitivity_check,
)

__all__ = [
    "Claim", "ConfigError", "ConvergenceReport", "CsmState",
    "DimensionTooLarge", "Grid", "GridSpec", "HazardModel", "HedgeField",
    "MarketModel", "NoConvergence", "PriceField",
    "RegimeHedgeError", "ResidualRiskReport", "RootFindFailure",
    "SensitivityReport", "SingularCovariance", "SolverSettings",
    "SwitchBlock", "TimeCoeff", "TruncationFailure",
    "build_market", "hedge_field", "linear_growth_norm",
    "mc_price", "pde_residual", "residual_risk",
    "sensitivity_check", "simulate_csm",
    "solve_price_field", "strategy_at",
]
