"""Reference best-split scan: one sequential left-to-right loop.

``routeboost.learners.scan_split`` must return exactly what this loop
returns (same tuple, compared with ``==``) for every finite input.
"""

from __future__ import annotations


def scan_split(xs, ys, min_leaf):
    """Best boundary of one feature for a variance-reduction split.

    ``xs`` must be sorted ascending and ``ys`` holds the node-centered
    target values in the same order. Returns ``(left_count, threshold,
    score)`` where ``score`` is the summed left+right SSE, or ``None``
    when no boundary satisfies ``min_leaf`` on both sides. Thresholds
    are midpoints of consecutive distinct values; equal scores keep the
    lowest threshold.
    """
    x = xs.tolist()
    y = ys.tolist()
    n = len(x)
    total = 0.0
    total_sq = 0.0
    for v in y:
        total += v
        total_sq += v * v

    best_pos = -1
    best_thr = 0.0
    best_score = float("inf")
    left_sum = 0.0
    left_sq = 0.0
    for i in range(1, n):
        v = y[i - 1]
        left_sum += v
        left_sq += v * v
        if i < min_leaf or n - i < min_leaf:
            continue
        a = x[i - 1]
        b = x[i]
        if a == b:
            continue
        right_sum = total - left_sum
        right_sq = total_sq - left_sq
        score = (left_sq - left_sum * left_sum / i) + (
            right_sq - right_sum * right_sum / (n - i)
        )
        if score < best_score:
            best_score = score
            best_pos = i
            thr = (a + b) / 2.0
            if thr == b:
                # Adjacent floats can round the midpoint up; pin the
                # threshold so the partition matches the scanned boundary.
                thr = a
            best_thr = thr
    if best_pos < 0:
        return None
    return best_pos, best_thr, best_score
