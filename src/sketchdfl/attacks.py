"""Byzantine transmission attacks.

Attacks corrupt only what a compromised node sends; its own training and
aggregation stay honest. With kind="none" and consistent_sketch=True a
compromised node is therefore indistinguishable from an honest one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .sketch import Sketch, SketchParams, compute_sketch

ATTACK_KINDS = ("none", "gaussian", "directed-deviation")


@dataclass(frozen=True)
class AttackSpec:
    kind: str = "none"
    sigma: float = 1.0            # gaussian: noise std per coordinate
    lam: float = 2.0              # directed-deviation: step against the honest direction
    consistent_sketch: bool = True  # False: send the sketch of the pre-attack model

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ConfigurationError(
                f"unknown attack kind {self.kind!r}, expected one of {ATTACK_KINDS}"
            )
        if self.kind == "gaussian" and self.sigma <= 0:
            raise ConfigurationError(f"gaussian sigma must be > 0, got {self.sigma}")
        if self.kind == "directed-deviation" and self.lam <= 0:
            raise ConfigurationError(f"deviation scale must be > 0, got {self.lam}")


@dataclass
class AttackContext:
    """Round-level collusion state shared by all attackers: the honest
    models in node-id order. Only directed-deviation reads the statistics,
    so each is computed on first read, once a round."""

    trained: list[np.ndarray]   # honest post-training models
    previous: list[np.ndarray]  # the same nodes' models at round start

    @cached_property
    def honest_mean(self) -> np.ndarray:
        return _mean(self.trained)

    @cached_property
    def honest_direction(self) -> np.ndarray:
        """honest_mean minus the honest mean at round start."""
        return self.honest_mean - _mean(self.previous)


def _mean(rows: list[np.ndarray]) -> np.ndarray:
    """Row-by-row sum over the count; bitwise np.stack(rows).mean(axis=0)
    without the (n, d) copy."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total / len(rows)


def apply_attack(
    spec: AttackSpec,
    honest_update: np.ndarray,
    ctx: AttackContext,
    rng: np.random.Generator,
) -> np.ndarray:
    """Model an attacker transmits in place of its honest update.

    gaussian: independent noise per attacker. directed-deviation: all
    attackers collude on one vector pushing against the honest mean's
    movement, so it ignores both the honest update and the rng.
    """
    if spec.kind == "none":
        return honest_update
    if spec.kind == "gaussian":
        # in place, bitwise honest_update + sigma * noise
        noise = rng.standard_normal(honest_update.shape)
        noise *= spec.sigma
        noise += honest_update
        return noise
    return ctx.honest_mean - spec.lam * np.sign(ctx.honest_direction)


def attacker_message(
    spec: AttackSpec,
    params: SketchParams,
    transmitted_model: np.ndarray,
    own_sketch: Sketch,
) -> Sketch:
    """Sketch an attacker advertises beside its transmitted model under a
    sketch protocol.

    consistent_sketch sends the true sketch of the corrupted model, which
    beats verification and must be caught by distance screening instead;
    otherwise the attacker advertises own_sketch, the sketch of its
    innocent-looking pre-attack model, and relies on stale trust.
    """
    if spec.consistent_sketch:
        return compute_sketch(params, transmitted_model)
    return own_sketch
