"""Output checks that share no code with the program under test.

GF(2) work uses a bit-packed rank written here: rows are packed into uint64
words and eliminated a whole batch of matrices at a time.  Work over other
fields goes through ``tests/oracles.py`` (textbook row reduction that only
borrows the field's scalar add/mul/inv).  Every check returns a list of
human-readable problems; an empty list means the output passed.
"""

from __future__ import annotations

import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import oracles  # noqa: E402


# ---------------------------------------------------------------------------
# GF(2) ranks on packed rows


def gf2_ranks(mats):
    """Ranks over GF(2) of a batch of 0/1 matrices, shape (batch, rows, cols)."""
    A = np.asarray(mats, dtype=np.uint8) & 1
    batch, rows, cols = A.shape
    width = -(-cols // 64)
    packed = np.packbits(A, axis=2, bitorder="little")
    padded = np.zeros((batch, rows, width * 8), dtype=np.uint8)
    padded[:, :, :packed.shape[2]] = packed
    W = padded.view("<u8").reshape(batch, rows, width).copy()
    used = np.zeros((batch, rows), dtype=bool)
    rank = np.zeros(batch, dtype=np.int64)
    every = np.arange(batch)
    for c in range(cols):
        bit = np.uint64(1 << (c % 64))
        live = ((W[:, :, c // 64] & bit) != 0) & ~used
        found = live.any(axis=1)
        if not found.any():
            continue
        piv = live.argmax(axis=1)
        prow = W[every, piv]
        live[every, piv] = False
        live &= found[:, None]
        W ^= np.where(live[:, :, None], prow[:, None, :], np.uint64(0))
        used[every[found], piv[found]] = True
        rank += found
        if (rank == rows).all():
            break
    return rank


def gf2_doc_problems(doc, expect):
    """Check a GF(2) construction document against expect = (n, size, d, K).

    Confirms the reported parameters and, from the codewords alone: every
    basis has rank K, rank(G_i G_j^T) = K for every ordered pair (so
    C_i meets C_j^perp trivially), and the minimum pair distance is d.
    """
    n, size, d, K = expect
    probs = []
    prm = doc.get("params", {})
    if doc.get("field") != {"p": 2, "r": 1}:
        probs.append(f"field {doc.get('field')} is not GF(2)")
    reported = (prm.get("n"), prm.get("size"), prm.get("d"), prm.get("K"))
    if reported != (n, size, d, [K]):
        probs.append(f"reported params {reported} != {(n, size, d, [K])}")
    if doc.get("lcd_verified") is not True:
        probs.append("lcd_verified is not true")
    try:
        G = np.array(doc["codewords"], dtype=np.int64)
    except (KeyError, ValueError):
        return probs + ["codewords are missing or ragged"]
    if G.shape != (size, K, n):
        return probs + [f"codewords have shape {G.shape}, not {(size, K, n)}"]
    if ((G != 0) & (G != 1)).any():
        return probs + ["codeword entries outside {0, 1}"]
    low = np.flatnonzero(gf2_ranks(G) != K)
    if low.size:
        probs.append(f"codeword {int(low[0])} has rank below {K}")
    flat = G.reshape(size * K, n).astype(np.float32)
    gram = (flat @ flat.T).astype(np.int64) % 2
    blocks = gram.reshape(size, K, size, K).transpose(0, 2, 1, 3)
    bad = np.argwhere(gf2_ranks(blocks.reshape(size * size, K, K)) != K)
    if bad.size:
        i, j = divmod(int(bad[0, 0]), size)
        probs.append(f"C_{i} meets the dual of C_{j}: rank(G_i G_j^T) < {K}")
    iu, ju = np.triu_indices(size, k=1)
    stacked = np.concatenate([G[iu], G[ju]], axis=1)
    dmin = int((2 * gf2_ranks(stacked) - 2 * K).min())
    if dmin != d:
        probs.append(f"minimum pair distance is {dmin}, expected {d}")
    return probs


def gf2_distances(received, codeword):
    """Subspace distance from each received generator set to one codeword."""
    k = gf2_ranks(codeword[None])[0]
    out = []
    for rows in received:
        R = np.asarray(rows, dtype=np.int64)
        r = gf2_ranks(R[None])[0]
        s = gf2_ranks(np.vstack([R, codeword])[None])[0]
        out.append(int(2 * s - r - k))
    return out


def decode_problems(outcomes, sent, distance):
    """Both decoders must decode word w to sent[w] at the given distance.

    outcomes holds one (projection, naive) pair of (status, index, distance)
    triples per decoded word, in stream order; sent cycles with the stream.
    """
    probs = []
    for w, (proj, naive) in enumerate(outcomes):
        want = ("decoded", sent[w % len(sent)], distance)
        if tuple(proj) != want or tuple(naive) != want:
            probs.append(f"word {w}: projection {proj}, naive {naive}, "
                         f"expected {want}")
            if len(probs) == 5:
                break
    return probs


# ---------------------------------------------------------------------------
# other fields through the oracles


def oracle_code_problems(field, n, words, d):
    """Every ordered pair (i, j) has C_i meet C_j^perp = 0, and the minimum
    pair distance is d; both from oracles.py row reduction."""
    probs = []
    duals = [oracles.kernel_basis(field, w, n) for w in words]
    for i, wi in enumerate(words):
        k = oracles.rank(field, wi)
        for j, dj in enumerate(duals):
            meet = k + len(dj) - oracles.rank(field, list(wi) + list(dj))
            if meet:
                probs.append(f"C_{i} meets the dual of C_{j} in dimension {meet}")
    dmin = min(oracles.subspace_distance(field, n, words[i], words[j])
               for i in range(len(words)) for j in range(i + 1, len(words)))
    if dmin != d:
        probs.append(f"minimum pair distance is {dmin}, expected {d}")
    return probs


def tally_problems(stats, trials):
    """Tallies of one run_experiment call sum to its trial count, and the
    two decoders agreed on every trial."""
    probs = []
    if stats["trials"] != trials:
        probs.append(f"{stats['trials']} trials reported, {trials} asked")
    if stats["correct"] + stats["failure"] + stats["wrong"] != trials:
        probs.append("correct + failure + wrong != trials")
    if stats["agreement"] != trials:
        probs.append(f"agreement {stats['agreement']} != trials {trials}")
    return probs


def retally_problems(field, n, words, received, sent, stats):
    """Recount one chunk's outcomes from oracle distances and compare.

    received[t] holds the generator rows of trial t, sent[t] the index of
    the codeword transmitted; words are the codeword bases in code order.
    """
    correct = failure = wrong = 0
    total = 0
    for rows, s in zip(received, sent):
        dists = [oracles.subspace_distance(field, n, w, rows) for w in words]
        best = min(dists)
        total += best
        hits = [i for i, v in enumerate(dists) if v == best]
        if len(hits) > 1:
            failure += 1
        elif hits[0] == s:
            correct += 1
        else:
            wrong += 1
    probs = []
    mine = (correct, failure, wrong)
    theirs = (stats["correct"], stats["failure"], stats["wrong"])
    if mine != theirs:
        probs.append(f"re-tally (correct, failure, wrong) {mine} != {theirs}")
    if abs(total / len(sent) - stats["mean_distance"]) > 1e-9:
        probs.append(f"re-tally mean distance {total / len(sent)} != "
                     f"{stats['mean_distance']}")
    return probs
