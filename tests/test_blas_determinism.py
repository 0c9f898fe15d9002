"""Screening distances and held-out scores do not depend on the BLAS
thread count.

OpenBLAS splits a dot product over 10,000 elements across its threads, so a
distance taken through BLAS rounds differently at 1 and 2 threads. Each
count runs in its own interpreter, because OpenBLAS reads
OPENBLAS_NUM_THREADS once, when it is loaded.

Evaluation folds every model's classes into the M side of one GEMM against
the shared held-out set. The probe asserts, at each thread count, that the
folded scores are bitwise the per-model products `X @ W.T`, at the desk
shape (16 models, 10 classes, 128 design columns, 2000 samples) and a
wide one (48 models, 33 columns), both folded whole and in the blocks of
models evaluation scores at a time, and prints their digests for the
cross-count comparison.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import hashlib
import numpy as np
from sketchdfl.aggregation import PairTable, balance_filter
from sketchdfl.learning import LogisticTask, TaskSpec, _class_scores, _eval_block
from sketchdfl.sketch import Sketch, sketch_distance

rng = np.random.default_rng(5)
me = rng.normal(size=20_000)
nbrs = {j: me + rng.normal(scale=0.1 * j, size=20_000) for j in range(1, 5)}
pairs = PairTable({0: range(1 + len(nbrs))})
sq = pairs.submatrix(pairs.compute([me, *nbrs.values()]), 0)
print(sq.tobytes().hex())
out = balance_filter(me, nbrs, 2.0, 1.0, 0, 5, sq[0, 1:])
print(repr(out.threshold), repr(out.distances))
a, b = Sketch(me, fingerprint=1), Sketch(nbrs[1], fingerprint=1)
print(repr(a.norm()), repr(sketch_distance(a, b)))
for n, cols in ((16, 128), (48, 33)):
    W, X = rng.normal(size=(n, 10, cols)), rng.normal(size=(2000, cols))
    folded = _class_scores(W, X)
    per_model = np.stack([(X @ w.T).T for w in W])
    assert folded.tobytes() == per_model.tobytes(), (n, cols)
    print(hashlib.sha256(folded.tobytes()).hexdigest())
    # evaluation folds at most one block of models into each GEMM
    block = _eval_block(LogisticTask(TaskSpec(features=cols - 1)), len(X))
    for start in range(0, n, block):
        part = _class_scores(W[start:start + block], X)
        assert part.tobytes() == per_model[start:start + block].tobytes(), (n, start)
        print(len(part), hashlib.sha256(part.tobytes()).hexdigest())
"""


def _probe(blas_threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_distances_are_bit_identical_at_one_and_two_blas_threads():
    assert _probe(1) == _probe(2)
