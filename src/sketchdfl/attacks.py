"""Byzantine transmission attacks.

Attacks corrupt only what a compromised node sends; its own training and
aggregation stay honest. With kind="none" and consistent_sketch=True a
compromised node is therefore indistinguishable from an honest one.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def round_start_mean(spec: AttackSpec, honest_rows: list[np.ndarray]) -> np.ndarray | None:
    """The honest models' mean at round start, for the attacks that read
    it (directed-deviation), else None without reading a row. Training
    overwrites the rows, so the engine calls this before it trains."""
    return _mean(honest_rows) if spec.kind == "directed-deviation" else None


def colluding_vector(spec: AttackSpec, honest_trained: list[np.ndarray],
                     start_mean: np.ndarray | None) -> np.ndarray | None:
    """What every directed-deviation attacker sends this round: the honest
    trained models' mean, in node-id order, minus lam times the sign of its
    move from `start_mean`, what `round_start_mean` gave for the same
    nodes. Built once a round and read-only, so attackers on several
    threads only copy it; None without reading a row for any other attack."""
    if spec.kind != "directed-deviation":
        return None
    mean = _mean(honest_trained)
    step = np.sign(mean - start_mean)
    step *= spec.lam
    mean -= step  # bitwise mean - lam * sign(mean - start_mean)
    mean.flags.writeable = False
    return mean


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
    colluding: np.ndarray | None,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Model an attacker transmits in place of its honest update.

    gaussian: independent noise per attacker, never reading `colluding`.
    directed-deviation: a copy of `colluding`, what `colluding_vector`
    built this round, ignoring both the honest update and the rng.

    The transmission is written into `out` when given (a C-contiguous
    float64 vector that is not the honest update, and is returned), else
    into a new array; both give the same bits. kind="none" writes nothing
    and returns honest_update itself.
    """
    if spec.kind == "none":
        return honest_update
    if out is None:
        out = np.empty_like(honest_update)
    if spec.kind == "directed-deviation":
        np.copyto(out, colluding)
        return out
    # bitwise honest_update + sigma * standard_normal(shape)
    rng.standard_normal(out=out)
    out *= spec.sigma
    out += honest_update
    return out


def attacker_message(
    spec: AttackSpec,
    params: SketchParams,
    transmitted_model: np.ndarray,
    own_sketch: Sketch,
) -> Sketch:
    """Sketch an attacker advertises beside its transmitted model under a
    sketch protocol.

    consistent_sketch sends the true sketch of the corrupted model, which
    matches it by construction, as an honest sender's pair does, so only
    distance screening can catch it (the engine runs no sender check on
    it); otherwise the attacker advertises own_sketch, the sketch of its
    innocent-looking pre-attack model, and relies on stale trust.
    """
    if spec.consistent_sketch:
        return compute_sketch(params, transmitted_model)
    return own_sketch
