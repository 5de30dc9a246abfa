"""Independent oracles shared by the unit and acceptance suites.

Everything here is deliberately naive: full sorts, double loops, exhaustive
enumeration, exact combinatorics. None of it shares code with the library
paths it verifies, except ``reference_fit``: it runs the USL-T step loop
one public kernel call at a time, so that the optimizer's own loop is
checked against the kernels it must agree with bit for bit.
"""

import itertools
import math
import tracemalloc

import numpy as np


def brute_force_graph(X, k):
    """O(n^2) kNN oracle: all pairwise distances from differences, then a
    full stable sort on (distance, index)."""
    n = X.shape[0]
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    dist[np.arange(n), np.arange(n)] = np.inf
    idx = np.broadcast_to(np.arange(n), (n, n))
    order = np.lexsort((idx, dist), axis=1)[:, :k]
    rows = np.arange(n)[:, None]
    return idx[rows, order], dist[rows, order]


def traced_peak(fn, *args, **kwargs):
    """Peak bytes traced by ``tracemalloc`` while ``fn(*args, **kwargs)``
    runs (numpy buffers included, BLAS-internal ones not)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def average_rank_percentile_oracle(values):
    """Percentile in [0, 100] of each value from its average 0-based rank:
    a value with b values below it and e equal to it (itself included)
    spans ranks b .. b + e - 1, so its rank is (2b + e - 1) / 2."""
    values = list(values)
    n = len(values)
    if n == 1:
        return [100.0]
    out = []
    for x in values:
        below = sum(v < x for v in values)
        equal = sum(v == x for v in values)
        out.append(100.0 * ((2 * below + equal - 1) / 2) / (n - 1))
    return out


def sign_lattice():
    """The 242 nonzero points of {-1, 0, 1}^5. Once L2-normalized they stay
    distinct, and their exact distance ties cross the k + pad preselection
    boundary of some kNN rows at k=10."""
    return np.array([p for p in itertools.product([-1.0, 0.0, 1.0], repeat=5) if any(p)])


def horizon_oracle(dist_row, h):
    """Columns of the h nearest selections of one row: a full sort on
    (distance, column), so ties go to the lower column."""
    return sorted(range(len(dist_row)), key=lambda j: (dist_row[j], j))[:h]


def nearest_centroid_oracle(X, C):
    """Nearest centroid of each row from one full difference pass per row,
    the first (lowest-id) minimum on ties, and its squared distance."""
    assignment = np.empty(X.shape[0], dtype=np.int64)
    d2 = np.empty(X.shape[0])
    for i, x in enumerate(X):
        row = ((x - C) ** 2).sum(axis=1)
        assignment[i] = np.argmin(row)
        d2[i] = row[assignment[i]]
    return assignment, d2


def reference_kmeanspp(X, clusters, rng):
    """Greedy k-means++ seeding scored one trial at a time: each candidate
    gets its own full difference pass and the first strictly lowest
    potential wins. Returns the chosen row indices."""
    n = X.shape[0]
    trials = 2 + int(np.log2(max(clusters, 2)))

    def sq_dists(row):
        diff = X - X[row][None, :]
        return (diff * diff).sum(axis=1)

    chosen = [int(rng.integers(n))]
    d2 = sq_dists(chosen[0])
    for _ in range(1, clusters):
        total = d2.sum()
        if total > 0:
            cands = rng.choice(n, size=trials, p=d2 / total)
            best, best_d2, best_pot = -1, None, np.inf
            for pick in cands:
                cand_d2 = np.minimum(d2, sq_dists(pick))
                pot = cand_d2.sum()
                if pot < best_pot:
                    best, best_d2, best_pot = int(pick), cand_d2, pot
            chosen.append(best)
            d2 = best_d2
        else:
            chosen.append(min(set(range(n)) - set(chosen)))
            d2 = np.minimum(d2, sq_dists(chosen[-1]))
    return np.array(chosen, dtype=np.int64)


def alg1_transcription(X, utility, clustering, lam, alpha, m_reg, rounds):
    """Literal double-loop transcription of the iterative regularization
    pseudo-code, no horizon, no vectorization."""
    n = X.shape[0]
    m = clustering.num_clusters
    cluster = clustering.assignment

    def per_cluster_argmax(scores):
        picks = []
        for c in range(m):
            members = [i for i in range(n) if cluster[i] == c]
            best = members[0]
            for i in members[1:]:
                if scores[i] > scores[best]:
                    best = i
            picks.append(best)
        return picks

    reg_bar = [0.0] * n
    selected = per_cluster_argmax(utility)
    for _ in range(rounds):
        u_prime = [0.0] * n
        for i in range(n):
            reg = 0.0
            for j in range(m):
                if cluster[selected[j]] != cluster[i]:
                    d = float(np.linalg.norm(X[i] - X[selected[j]]))
                    reg += 1.0 / d**alpha
            reg_bar[i] = m_reg * reg_bar[i] + (1.0 - m_reg) * reg
            u_prime[i] = utility[i] - lam * reg_bar[i]
        selected = per_cluster_argmax(u_prime)
    return selected


def best_partition_objective(X, clusters):
    """Global K-Means optimum by exhaustive enumeration of set partitions
    (restricted growth strings with at most ``clusters`` blocks)."""
    n = X.shape[0]
    best = np.inf

    def rec(i, assignment, used):
        nonlocal best
        if i == n:
            if used == clusters:
                obj = 0.0
                a = np.array(assignment)
                for c in range(clusters):
                    pts = X[a == c]
                    obj += ((pts - pts.mean(axis=0)) ** 2).sum()
                best = min(best, obj)
            return
        for c in range(min(used + 1, clusters)):
            assignment.append(c)
            rec(i + 1, assignment, max(used, c + 1))
            assignment.pop()

    rec(0, [], 0)
    return best


def exact_expected_coverage(class_sizes, budget):
    """E[#classes hit] under uniform sampling without replacement, from the
    exact occupancy distribution."""
    n = sum(class_sizes)
    total = math.comb(n, budget)
    return sum(1.0 - math.comb(n - s, budget) / total for s in class_sizes)


def reference_fit(matrix, num_clusters, params, optimizer, metric="dot"):
    """USL-T minibatch descent written out from the public kernels: a fresh
    ``UsltState`` every step, ``total_loss`` for the loss and gradient,
    ``softmax(similarities(Xn))`` for the batch mean, ``ema_update`` for the
    running mean and a full ``similarities`` pass for the occupancy counts.

    Returns (state, loss history, occupancy history, clusters re-seeded).
    """
    from labelsel import uslt
    from labelsel.density import build_knn_graph

    X = matrix.data
    n = X.shape[0]
    rng = np.random.default_rng(optimizer.seed)
    state = uslt.initial_state(X, num_clusters, rng)
    losses, occupancy, reseeds = [], [], 0
    if optimizer.steps == 0:
        return state, losses, occupancy, reseeds
    graph = build_knn_graph(matrix, params.neighbor_k)
    velocity = np.zeros_like(state.centroids)
    batch = min(optimizer.batch_size, n)
    steps_per_epoch = max(1, math.ceil(n / batch))
    for step in range(1, optimizer.steps + 1):
        idx = rng.choice(n, size=batch, replace=False)
        nbr = graph.neighbors[idx, rng.integers(0, graph.k, size=batch)]
        Xb, Xnb = X[idx], X[nbr]
        with np.errstate(all="ignore"):
            result = uslt.total_loss(Xb, Xnb, state, params, metric)
        assert np.isfinite(result.loss) and np.isfinite(result.grad).all()
        losses.append(result.loss)
        velocity = optimizer.momentum * velocity - optimizer.learning_rate * result.grad
        centroids = state.centroids + velocity
        if optimizer.normalize_centroids:
            norms = np.linalg.norm(centroids, axis=1, keepdims=True)
            centroids = centroids / np.maximum(norms, 1e-12)
        batch_mean = uslt.softmax(uslt.similarities(Xnb, state, metric), axis=1).mean(axis=0)
        state = uslt.ema_update(
            uslt.UsltState(centroids=centroids, running_mean=state.running_mean, step=step),
            batch_mean,
            params.momentum,
        )
        at_epoch = step % steps_per_epoch == 0 or step == optimizer.steps
        if at_epoch or step % optimizer.reseed_interval == 0:
            hard = uslt.similarities(X, state, metric).argmax(axis=1)
            counts = np.bincount(hard, minlength=num_clusters)
            if at_epoch:
                occupancy.append((step, counts.copy()))
            empty = np.flatnonzero(counts == 0)
            if empty.size:
                centroids = state.centroids.copy()
                head = int(counts.argmax())
                for e in empty:
                    centroids[e] = centroids[head] + rng.normal(
                        0.0, optimizer.reseed_noise, size=centroids.shape[1]
                    )
                    velocity[e] = 0.0
                reseeds += empty.size
                state = uslt.UsltState(
                    centroids=centroids, running_mean=state.running_mean, step=state.step
                )
    return state, losses, occupancy, reseeds


def reference_uslt_picks(matrix, state, metric="dot"):
    """Each cluster's member of highest softmax confidence (ties to the
    lower index) under the fitted state, or None if a cluster is empty."""
    from labelsel import uslt

    z = uslt.similarities(matrix.data, state, metric)
    confidence = uslt.softmax(z, axis=1).max(axis=1)
    hard = z.argmax(axis=1)
    picks = []
    for c in range(state.num_clusters):
        members = np.flatnonzero(hard == c)
        if members.size == 0:
            return None
        picks.append(members[int(np.argmax(confidence[members]))])
    return np.array(picks, dtype=np.int64)
