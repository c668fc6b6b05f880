"""Synthetic multicore workloads: random, Zipf, cyclic, phased, and
access-graph walks.

These model the workload families the paper's introduction motivates
(multiprogrammed and multithreaded cache sharing) and drive the policy
landscape experiment (E14) plus the property-based tests.  All generators
are seeded and deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.request import Workload

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "uniform_workload",
    "zipf_workload",
    "cyclic_workload",
    "phased_workload",
    "access_graph_workload",
    "multi_pointer_graph_workload",
]


def _rng(seed):
    return np.random.default_rng(seed)


def uniform_workload(
    p: int,
    length: int,
    pages_per_core: int,
    *,
    shared_pages: int = 0,
    seed=0,
) -> Workload:
    """Independent uniform random requests.

    Each core draws uniformly from its private universe of
    ``pages_per_core`` pages plus (optionally) a universe of
    ``shared_pages`` pages common to all cores.
    """
    rng = _rng(seed)
    seqs = []
    dense = []
    for j in range(p):
        private = [(j, i) for i in range(pages_per_core)]
        shared = [("shared", i) for i in range(shared_pages)]
        pool = private + shared
        idx = rng.integers(0, len(pool), size=length)
        seqs.append([pool[i] for i in idx.tolist()])
        # Dense encoding mirroring the pool layout: private pages map to
        # the core's block, shared pages to one trailing shared block.
        dense.append(
            np.where(
                idx < pages_per_core,
                j * pages_per_core + idx,
                p * pages_per_core + (idx - pages_per_core),
            )
        )
    w = Workload(seqs)
    w.attach_dense_page_ids(p * pages_per_core + shared_pages, dense)
    return w


def zipf_workload(
    p: int,
    length: int,
    pages_per_core: int,
    *,
    alpha: float = 1.2,
    seed=0,
) -> Workload:
    """Zipf-distributed requests over per-core universes (disjoint).

    ``alpha`` is the Zipf exponent; ranks are drawn by inverse-CDF over
    the finite universe so the distribution is exact.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = _rng(seed)
    weights = 1.0 / np.arange(1, pages_per_core + 1, dtype=float) ** alpha
    probs = weights / weights.sum()
    seqs = []
    dense = []
    for j in range(p):
        # Per-core random permutation so the hot page differs per core.
        perm = rng.permutation(pages_per_core)
        ranks = rng.choice(pages_per_core, size=length, p=probs)
        # Gather through numpy, then build tuples at C speed; identical
        # draws and pages to the scalar per-element version.
        vals = perm[ranks]
        seqs.append(list(zip([j] * length, vals.tolist())))
        dense.append(vals.astype(np.int64) + j * pages_per_core)
    w = Workload(seqs)
    w.attach_dense_page_ids(p * pages_per_core, dense)
    return w


def cyclic_workload(
    p: int, length: int, cycle_length: int, *, stride: int = 1
) -> Workload:
    """Each core scans cyclically over ``cycle_length`` disjoint pages
    (the classic LRU-pathological pattern when the cycle exceeds the
    cache share)."""
    seqs = [
        [(j, (i * stride) % cycle_length) for i in range(length)]
        for j in range(p)
    ]
    w = Workload(seqs)
    offs = (np.arange(length, dtype=np.int64) * stride) % cycle_length
    w.attach_dense_page_ids(
        p * cycle_length, [offs + j * cycle_length for j in range(p)]
    )
    return w


def phased_workload(
    p: int,
    length: int,
    working_set: int,
    num_phases: int,
    *,
    seed=0,
) -> Workload:
    """Phase-structured locality: each core's execution is divided into
    ``num_phases`` equal phases; within a phase it draws uniformly from a
    phase-specific working set of ``working_set`` pages.  Models programs
    moving between loops — the workload dynamic partitions must chase.
    """
    rng = _rng(seed)
    if num_phases < 1:
        raise ValueError("num_phases must be >= 1")
    per_phase = max(1, length // num_phases)
    span = num_phases * working_set
    seqs = []
    dense = []
    for j in range(p):
        seq = []
        offs = []
        for phase in range(num_phases):
            base = phase * working_set
            count = per_phase if phase < num_phases - 1 else length - len(seq)
            idx = rng.integers(0, working_set, size=count)
            seq.extend((j, base + int(i)) for i in idx)
            offs.append(base + idx.astype(np.int64))
        seqs.append(seq[:length])
        cat = np.concatenate(offs) if offs else np.zeros(0, dtype=np.int64)
        dense.append(cat[:length] + j * span)
    w = Workload(seqs)
    w.attach_dense_page_ids(p * span, dense)
    return w


def access_graph_workload(
    p: int,
    length: int,
    graph: nx.Graph | None = None,
    *,
    nodes: int = 32,
    degree: int = 4,
    seed=0,
) -> Workload:
    """Random walks on an access graph (Borodin et al. / Fiat-Karlin's
    locality-of-reference model, discussed in the paper's related work).

    Each core performs an independent random walk on its own copy of the
    graph (disjoint page universes) — the "different applications"
    multi-pointer case.
    """
    rng = _rng(seed)
    if graph is None:
        import networkx as nx  # deferred: only the graph walks need it

        graph = nx.random_regular_graph(
            degree, nodes, seed=int(rng.integers(0, 2**31))
        )
    node_list = list(graph.nodes)
    seqs = []
    walks = []
    for j in range(p):
        node = node_list[int(rng.integers(0, len(node_list)))]
        seq = [(j, node)]
        walk = [node]
        for _ in range(length - 1):
            nbrs = list(graph.neighbors(node))
            node = nbrs[int(rng.integers(0, len(nbrs)))] if nbrs else node
            seq.append((j, node))
            walk.append(node)
        seqs.append(seq)
        walks.append(walk)
    w = Workload(seqs)
    # Dense ids only when node labels are already small nonnegative ints
    # (true for the generated regular graphs); arbitrary user graphs keep
    # the interning fallback.
    if node_list and all(type(x) is int for x in node_list):
        lo = min(node_list)
        span = max(node_list) - lo + 1
        if lo >= 0 and span <= 4 * len(node_list) + 64:
            w.attach_dense_page_ids(
                p * span,
                [np.asarray(wk, dtype=np.int64) - lo + j * span
                 for j, wk in enumerate(walks)],
            )
    return w


def multi_pointer_graph_workload(
    p: int,
    length: int,
    *,
    nodes: int = 32,
    degree: int = 4,
    seed=0,
) -> Workload:
    """Multiple pointers walking one *shared* access graph — Fiat &
    Karlin's multithreaded case.  The resulting workload is non-disjoint
    (cores genuinely share pages), exercising the simulator's in-flight
    semantics.
    """
    import networkx as nx  # deferred: only the graph walks need it

    rng = _rng(seed)
    graph = nx.random_regular_graph(
        degree, nodes, seed=int(rng.integers(0, 2**31))
    )
    node_list = list(graph.nodes)
    seqs = []
    for _ in range(p):
        node = node_list[int(rng.integers(0, len(node_list)))]
        seq = [node]
        for _ in range(length - 1):
            nbrs = list(graph.neighbors(node))
            node = nbrs[int(rng.integers(0, len(nbrs)))] if nbrs else node
            seq.append(node)
        seqs.append(seq)
    return Workload(seqs)
