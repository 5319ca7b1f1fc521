"""Closed-form analysis: tolerated-speed budgets and predictions."""

from .thresholds import (
    BudgetInputs,
    angular_speed_limit_rad_s,
    default_staleness_s,
    inputs_for,
    linear_speed_limit_m_s,
)

__all__ = [
    "BudgetInputs",
    "angular_speed_limit_rad_s",
    "default_staleness_s",
    "inputs_for",
    "linear_speed_limit_m_s",
]
