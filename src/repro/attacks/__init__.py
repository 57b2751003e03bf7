"""Attack campaign framework: the Figure 7 experiment."""

from .campaign import (
    AttackOutcome,
    CampaignError,
    CampaignSummary,
    RunSpec,
    TAMPER_VALUES,
    WorkloadResult,
    attack_rng,
    attack_seed,
    run_attack_detailed,
)

__all__ = [
    "AttackOutcome",
    "CampaignError",
    "CampaignSummary",
    "RunSpec",
    "TAMPER_VALUES",
    "WorkloadResult",
    "attack_rng",
    "attack_seed",
    "run_attack_detailed",
    "run_campaign",
]


def __getattr__(name):
    # The campaign engine imports this package, so its entry point is
    # re-exported lazily rather than at import time.
    if name == "run_campaign":
        from ..parallel.engine import run_campaign

        return run_campaign
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
