"""README's Protocol, run one receiver at a time: the engine's byte oracle.

`simulate(config)` must give `run_simulation(config)`'s CSV columns,
`agg_ops_mean` and final models bit for bit. It has none of the engine's
shortcuts: no shared pair table, thread pool, double buffer, vector ids
or once-per-sender check. Each node screens its own sketch or model
against what each neighbour advertises, fetches the accepted models,
checks every one it fetches against its advertised sketch and mixes the
survivors in ascending id order. It calls only leaf kernels: training,
scoring, sketching, the data, task, topology and Byzantine draws, and
`node_stream`.
"""
import math
from dataclasses import dataclass

import numpy as np

from sketchdfl.engine import SimConfig, node_stream
from sketchdfl.learning import generate_federated_data, local_update, make_task
from sketchdfl.learning import test_error_rate as error_rate  # dodge collection
from sketchdfl.sketch import SketchParams, compute_sketch, default_sketch_width
from sketchdfl.topology import build_topology, sample_byzantine_nodes


def dist(a: np.ndarray, b: np.ndarray | float = 0.0) -> float:
    """||a - b||, or ||a|| without b."""
    return np.sqrt(np.sum((a - b) ** 2))


@dataclass
class Reference:
    rows: list[tuple]  # per round, the CSV columns after run_id, seed and byz_fraction
    agg_ops_mean: list[float]
    final_models: np.ndarray


def simulate(cfg: SimConfig) -> Reference:
    agg, attack, kind, n = cfg.aggregator, cfg.attack, cfg.aggregator.kind, cfg.n_nodes
    data = generate_federated_data(cfg.task, n, cfg.seeds.data)
    task = make_task(cfg.task, data)
    graph = build_topology(cfg.topology, n, cfg.seeds.topology)
    byz = set(sample_byzantine_nodes(n, cfg.byz_fraction, cfg.seeds.byzantine))
    honest = [i for i in range(n) if i not in byz]
    d, k = task.dim, 0
    sketching = kind == "sketchfilter"
    if sketching:
        seed = cfg.seeds.sketch if agg.sketch_seed is None else agg.sketch_seed
        params = SketchParams(d, agg.sketch_size or default_sketch_width(d), seed)
        k = params.width

        def sketch(v: np.ndarray) -> np.ndarray:
            return compute_sketch(params, v).values

    models = np.tile(task.init_model(node_stream(cfg.seeds.training, 0, 0, tag=0xC0)), (n, 1))
    rows, agg_ops = [], []
    for t in range(cfg.rounds):
        start_mean = np.mean(models[honest], axis=0)
        trained = local_update(task, models, data.features, data.labels, cfg.lr,
                               cfg.local_epochs, cfg.batch_size,
                               [node_stream(cfg.seeds.training, t, i, tag=1) for i in range(n)])

        # what each node uploads and advertises; attackers train honestly
        # and corrupt only what they send
        sent = list(trained)
        mean = np.mean(trained[honest], axis=0)
        for j in byz:
            if attack.kind == "gaussian":
                noise = node_stream(cfg.seeds.attack, t, j, tag=2).standard_normal(d)
                sent[j] = trained[j] + attack.sigma * noise
            elif attack.kind == "directed-deviation":
                sent[j] = mean - attack.lam * np.sign(mean - start_mean)
        if sketching:
            own = [sketch(v) for v in trained]
            advertised = [sketch(v) for v in sent] if attack.consistent_sketch else own

        def passes_check(j: int) -> bool:
            """The receiver recomputes the sketch of j's model and compares
            it with the sketch j advertised."""
            if not (sketching and cfg.verification):
                return True
            claimed = advertised[j]
            gap = dist(sketch(sent[j]), claimed)
            return gap <= agg.rel_tol * max(1.0, dist(claimed))

        new = np.empty_like(trained)
        accepted, survivors, fell_back = [], [], []
        for i in range(n):
            nbrs, fallback = graph.neighbors[i], False
            if kind == "dfedavg":
                taken = list(nbrs)
                total = trained[i].copy()
                for j in sorted(taken):
                    total += sent[j]
                new[i] = total / (1 + len(taken))
                kept = taken
            elif kind == "krum":
                pool = [trained[i], *(sent[j] for j in nbrs)]
                m, chosen = len(pool), 0  # below 3 models a node keeps its own
                if m >= 3:
                    f = agg.krum_f if agg.krum_f is not None else int(
                        np.floor(cfg.byz_fraction * m + 0.5))
                    keep = m - max(0, min(f, m - 3)) - 2
                    scores = [np.sum(np.sort([np.sum((pool[a] - pool[b]) ** 2)
                                              for b in range(m) if b != a])[:keep])
                              for a in range(m)]
                    # lowest score, first index on ties, NaN after every number
                    ranked = [a for a in range(m) if not math.isnan(scores[a])] or [0]
                    chosen = min(ranked, key=scores.__getitem__)
                new[i] = pool[chosen]
                taken = kept = [] if chosen == 0 else [nbrs[chosen - 1]]
            else:
                mine, theirs = (own[i], advertised) if sketching else (trained[i], sent)
                threshold = (agg.gamma * math.exp(-agg.kappa * t / cfg.rounds)
                             * dist(mine))
                gaps = {j: dist(mine, theirs[j]) for j in nbrs}
                taken = [j for j in nbrs if gaps[j] <= threshold]
                finite = [j for j in nbrs if math.isfinite(gaps[j])]
                if not taken and finite:  # the nearest at a finite distance, lowest id on ties
                    taken, fallback = [min(finite, key=gaps.__getitem__)], True
                kept = [j for j in taken if passes_check(j)]
                if kept:
                    total = np.zeros(d)
                    for j in sorted(kept):
                        total += sent[j]
                    new[i] = agg.alpha * trained[i] + (1 - agg.alpha) / len(kept) * total
                else:
                    new[i] = trained[i]
            accepted.append(taken)
            survivors.append(kept)
            fell_back.append(fallback)
        models = new

        def mean(per_node) -> float:
            return float(np.mean([per_node(i) for i in honest]))

        deg = graph.degree
        uploads = [sum(j in taken for taken in accepted) for j in range(n)]
        screen = {"dfedavg": lambda i: 0, "balance": lambda i: d * deg(i),
                  "sketchfilter": lambda i: k * deg(i),
                  "krum": lambda i: d * ((deg(i) + 1) * deg(i) // 2)}[kind]
        tx = (lambda i: k * deg(i) + d * uploads[i]) if sketching else (lambda i: d * deg(i))
        cost = {"dfedavg": lambda i: d * (len(accepted[i]) + 1), "krum": lambda i: d,
                "balance": lambda i: d * (len(survivors[i]) + 1),
                "sketchfilter": lambda i: d * (1 + len(accepted[i])) + d * (len(survivors[i]) + 1),
                }[kind]
        active = models[honest, : task.active_dim]
        if cfg.per_client_eval:
            ter = error_rate(task, active, data.features[honest], data.labels[honest])
        else:
            ter = error_rate(task, active, data.test_features, data.test_labels)
        slots = sum(len(byz.intersection(graph.neighbors[i])) for i in honest)
        taken_byz = sum(len(byz.intersection(survivors[i])) for i in honest)
        rows.append((
            t,
            float(np.mean(ter)),
            mean(tx),
            mean(screen),
            mean(lambda i: len(accepted[i]) / deg(i)),
            taken_byz / slots if slots else 0.0,
            sum(len(accepted[i]) - len(survivors[i]) for i in honest),
            sum(fell_back[i] for i in honest),
        ))
        agg_ops.append(mean(cost))
    return Reference(rows, agg_ops, models)
