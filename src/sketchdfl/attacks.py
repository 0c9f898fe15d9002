"""Byzantine transmission attacks.

Attacks corrupt only what a compromised node sends; its own training and
aggregation stay honest. With kind="none" and consistent_sketch=True a
compromised node is therefore indistinguishable from an honest one.

Every other kind is a row of ATTACKS with three parts: `start(spec,
honest round-start rows)`, read before training; `shared(spec, honest
trained rows, start's state)`, one read-only vector a round, built on the
main thread before any attacker runs; and `send(spec, honest update,
shared, rng, out)`, which writes the transmission. A part the kind does
not need is None, and nothing is read for it. A new attack is one more
row, written first in tests/reference_sim.py; a row that needs the hash
family builds its own SketchParams.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError
from .sketch import Sketch, SketchParams, compute_sketch


class Attack(NamedTuple):  # a row of ATTACKS, as the module docstring describes it
    start: Callable | None
    shared: Callable | None
    send: Callable


def _mean(rows: list[np.ndarray]) -> np.ndarray:
    """Row-by-row sum over the count; bitwise np.stack(rows).mean(axis=0)
    without the (n, d) copy."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total / len(rows)


def _colluding(spec: AttackSpec, honest_trained: list[np.ndarray],
               start_mean: np.ndarray) -> np.ndarray:
    """The honest trained models' mean, in node-id order, minus lam times the
    sign of its move from `start_mean`; read-only, so attackers only copy it."""
    mean = _mean(honest_trained)
    step = np.sign(mean - start_mean)
    step *= spec.lam
    mean -= step  # bitwise mean - lam * sign(mean - start_mean)
    mean.flags.writeable = False
    return mean


def _noise(spec: AttackSpec, honest_update, shared, rng: np.random.Generator, out) -> None:
    # bitwise honest_update + sigma * standard_normal(shape)
    rng.standard_normal(out=out)
    out *= spec.sigma
    out += honest_update


ATTACKS = {
    "gaussian": Attack(None, None, _noise),
    "directed-deviation": Attack(lambda spec, rows: _mean(rows), _colluding,
                                 lambda spec, update, shared, rng, out: np.copyto(out, shared)),
}
ATTACK_KINDS = ("none", *ATTACKS)


@dataclass(frozen=True)
class AttackSpec:
    kind: str = "none"
    sigma: float = 1.0            # gaussian: noise std per coordinate
    lam: float = 2.0              # directed-deviation: step against the honest direction
    consistent_sketch: bool = True  # False: send the sketch of the pre-attack model

    def __post_init__(self) -> None:
        if self.kind != "none" and self.kind not in ATTACKS:
            raise ConfigurationError(
                f"unknown attack kind {self.kind!r}, expected one of {('none', *ATTACKS)}"
            )
        if self.kind == "gaussian" and self.sigma <= 0:
            raise ConfigurationError(f"gaussian sigma must be > 0, got {self.sigma}")
        if self.kind == "directed-deviation" and self.lam <= 0:
            raise ConfigurationError(f"deviation scale must be > 0, got {self.lam}")


def apply_attack(spec: AttackSpec, honest_update: np.ndarray, shared: np.ndarray | None,
                 rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Model an attacker transmits in place of its honest update, written by
    its kind's row into `out` (a C-contiguous float64 vector that is not the
    honest update), which is returned; `shared` is what the row's `shared`
    built this round, or None. kind="none" has no row and is refused."""
    if (row := ATTACKS.get(spec.kind)) is None:
        raise ConfigurationError(f"attack kind {spec.kind!r} has no transmission to apply")
    row.send(spec, honest_update, shared, rng, out)
    return out


def attacker_message(spec: AttackSpec, params: SketchParams, transmitted_model: np.ndarray,
                     own_sketch: Sketch) -> Sketch:
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
