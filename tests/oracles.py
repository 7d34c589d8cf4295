"""Independent reference implementations the tests compare against.

Everything here is deliberately naive: textbook row reduction over an
abstract field, Leibniz determinants, brute-force span enumeration, BFS,
and direct triple counting.  The only package code an oracle may touch is
the scalar arithmetic of a field object (add/sub/mul/inv/neg), which the
axiom tests pin down before anything else relies on it.  Prime-field
scalars are additionally cross-checked against plain integers mod p, and
extension-field scalars against from-scratch polynomial arithmetic, so the
shared layer is itself double-checked.
"""

from collections import deque
from itertools import permutations, product


# ---------------------------------------------------------------------------
# scalar arithmetic, rebuilt from scratch


def poly_mul_mod(a, b, mod, p):
    """Multiply coefficient tuples (low degree first) modulo a monic poly."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    deg = len(mod) - 1
    for k in range(len(out) - 1, deg - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for t in range(deg):
                out[k - deg + t] = (out[k - deg + t] - c * mod[t]) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ext_mul(field, a, b):
    """Product of two encoded elements via independent polynomial arithmetic."""
    pa = tuple(field.coeffs(a))
    pb = tuple(field.coeffs(b))
    prod_poly = poly_mul_mod(tuple(x for x in pa), tuple(x for x in pb),
                             field.modulus, field.p)
    val = 0
    for i, c in enumerate(prod_poly):
        val += c * field.p ** i
    return val


def poly_rem(a, b, p):
    """Remainder of a modulo the monic polynomial b, by long division."""
    a = list(a)
    db = len(b) - 1
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k]
        if c:
            for t in range(db + 1):
                a[k - db + t] = (a[k - db + t] - c * b[t]) % p
    return tuple(a[:db])


def is_irreducible(poly, p):
    """Whether a monic polynomial of degree r over F_p has no monic factor of
    degree 1 to r // 2, by trial division by every one of them.  A factor
    x - a of degree 1 is a root a (the remainder is the value at a), and the
    root 0 is a zero constant term."""
    if not poly[0]:
        return False
    if any(sum(c * a ** i for i, c in enumerate(poly)) % p == 0 for a in range(1, p)):
        return False
    r = len(poly) - 1
    for d in range(2, r // 2 + 1):
        for tail in product(range(p), repeat=d):
            if not any(poly_rem(poly, tail + (1,), p)):
                return False
    return True


def ext_inv(field, a):
    """Inverse by exhaustive search over the field."""
    for b in range(1, field.q):
        if ext_mul(field, a, b) == 1:
            return b
    raise AssertionError(f"no inverse for {a} in F_{field.q}")


# ---------------------------------------------------------------------------
# dense linear algebra via plain row reduction


def rref(field, rows):
    """Reduced row echelon form, returned as (list of lists, pivot tuple)."""
    m = [list(int(x) for x in r) for r in rows]
    if not m:
        return [], ()
    ncols = len(m[0])
    pivots = []
    rpos = 0
    for col in range(ncols):
        sel = None
        for r in range(rpos, len(m)):
            if m[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        m[rpos], m[sel] = m[sel], m[rpos]
        inv = int(field.inv(m[rpos][col]))
        m[rpos] = [int(field.mul(inv, x)) for x in m[rpos]]
        for r in range(len(m)):
            if r != rpos and m[r][col] != 0:
                f = m[r][col]
                m[r] = [int(field.sub(x, field.mul(f, y)))
                        for x, y in zip(m[r], m[rpos])]
        pivots.append(col)
        rpos += 1
        if rpos == len(m):
            break
    return m, tuple(pivots)


def rank(field, rows):
    return len(rref(field, rows)[1])


def gf2_rank(rows):
    """Rank over F_2 of 0/1 rows, each read as a binary number.  The basis is
    kept sorted by leading bit, highest first, so min(x, x ^ b) clears b's
    leading bit from x whenever x has it set; fast enough for 97 x 191."""
    basis = []
    for v in rows:
        x = int("".join(str(int(c)) for c in v) or "0", 2)
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
            basis.sort(reverse=True)
    return len(basis)


def det_leibniz(field, M):
    """Determinant by the permutation expansion; fine for n <= 6."""
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = field.mul(term, int(M[i][j]))
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        if inversions % 2:
            term = field.neg(term)
        total = field.add(total, term)
    return int(total)


def kernel_basis(field, rows, ncols):
    """Right-kernel basis built from the reduced form's free columns."""
    red, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = int(field.neg(red[r][fc]))
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# subspaces by explicit vector enumeration


def span_tuples(field, n, rows):
    """Every vector in the row span, as a frozenset of int tuples."""
    red, pivots = rref(field, rows)
    basis = [tuple(red[i]) for i in range(len(pivots))]
    vecs = set()
    for coeffs in product(range(field.q), repeat=len(basis)):
        v = [0] * n
        for c, b in zip(coeffs, basis):
            if c:
                for i in range(n):
                    v[i] = int(field.add(v[i], field.mul(c, b[i])))
        vecs.add(tuple(v))
    return frozenset(vecs)


def dim_of_span(field, vec_set):
    """Recover the dimension from the size of an enumerated span."""
    size = len(vec_set)
    d = 0
    while field.q ** d < size:
        d += 1
    assert field.q ** d == size, "span size is not a power of q"
    return d


def subspace_distance(field, n, arows, brows):
    ra = rank(field, arows) if arows else 0
    rb = rank(field, brows) if brows else 0
    stacked = [list(r) for r in arows] + [list(r) for r in brows]
    rs = rank(field, stacked) if stacked else 0
    return 2 * rs - ra - rb


def dual_tuples(field, n, rows):
    """The orthogonal complement, enumerated vector by vector (small n only)."""
    out = set()
    basis = [list(r) for r in rows]
    for cand in product(range(field.q), repeat=n):
        ok = True
        for b in basis:
            s = 0
            for x, y in zip(cand, b):
                s = field.add(s, field.mul(x, y))
            if int(s) != 0:
                ok = False
                break
        if ok:
            out.add(tuple(cand))
    return frozenset(out)


def syndrome_decode(code, rows):
    """(status, index, distance) of the received rows by syndromes, with the
    unbounded minimum-distance rule of decode_naive.

    W_i, a basis of C_i^perp (the right kernel of C_i's basis), has left
    kernel C_i for any subspace code, LCD or not, so e_i = rank(R W_i^T)
    and d(C_i, R) = dim C_i + 2 e_i - dim R, with no LCD check and no
    inverse: the projection decoder's Q_i span the same columns
    (Q_i = W_i^T G_i^-1).  Every rank and product is a textbook one.
    """
    f = code.field
    rows = [[int(x) for x in r] for r in rows]
    dim = rank(f, rows)
    dists = []
    for w in code:
        W = kernel_basis(f, w.basis.tolist(), code.n)
        e = rank(f, [[_dot(f, r, v) for v in W] for r in rows])
        dists.append(w.dim + 2 * e - dim)
    best = min(dists)
    if dists.count(best) > 1:
        return "failure", None, best
    return "decoded", dists.index(best), best


def _dot(field, x, y):
    s = 0
    for a, b in zip(x, y):
        s = field.add(s, field.mul(a, b))
    return int(s)


# ---------------------------------------------------------------------------
# graphs and schemes by direct counting


def bfs_distances(adj):
    """All-pairs distances by BFS; -1 marks unreachable vertices."""
    n = len(adj)
    nbrs = [[j for j in range(n) if adj[i][j]] for i in range(n)]
    dist = [[-1] * n for _ in range(n)]
    for s in range(n):
        dist[s][s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for v in nbrs[u]:
                if dist[s][v] < 0:
                    dist[s][v] = dist[s][u] + 1
                    dq.append(v)
    return dist


def intersection_array(adj):
    """(b_i, c_i) profile of a graph, or None when counts are not constant."""
    n = len(adj)
    dist = bfs_distances(adj)
    if any(dist[i][j] < 0 for i in range(n) for j in range(n)):
        return None
    diam = max(max(row) for row in dist)
    nbrs = [[j for j in range(n) if adj[i][j]] for i in range(n)]
    bs = [set() for _ in range(diam + 1)]
    cs = [set() for _ in range(diam + 1)]
    for u in range(n):
        for v in range(n):
            d = dist[u][v]
            b = sum(1 for w in nbrs[v] if dist[u][w] == d + 1)
            c = sum(1 for w in nbrs[v] if dist[u][w] == d - 1)
            bs[d].add(b)
            cs[d].add(c)
    for d in range(diam + 1):
        if len(bs[d]) != 1 or len(cs[d]) != 1:
            return None
    return ([bs[d].pop() for d in range(diam)],
            [cs[d].pop() for d in range(1, diam + 1)])


def triple_count(mats, i, j, x, y):
    """Number of z with (x,z) in relation i and (z,y) in relation j."""
    n = len(mats[0])
    return sum(1 for z in range(n) if mats[i][x][z] and mats[j][z][y])


def intersection_tensor(mats):
    """p_{ij}^k by counting walks pair by pair; None if not well defined."""
    d = len(mats) - 1
    n = len(mats[0])
    tensor = [[[None] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    rel = [[None] * n for _ in range(n)]
    for k in range(d + 1):
        for x in range(n):
            for y in range(n):
                if mats[k][x][y]:
                    if rel[x][y] is not None:
                        return None
                    rel[x][y] = k
    if any(rel[x][y] is None for x in range(n) for y in range(n)):
        return None
    for i in range(d + 1):
        for j in range(d + 1):
            seen = [set() for _ in range(d + 1)]
            for x in range(n):
                for y in range(n):
                    seen[rel[x][y]].add(triple_count(mats, i, j, x, y))
            for k in range(d + 1):
                if len(seen[k]) != 1:
                    return None
                tensor[i][j][k] = seen[k].pop()
    return tensor


# ---------------------------------------------------------------------------
# standard graph fixtures, written down directly


def petersen_adjacency():
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i <-> i+5."""
    n = 10
    adj = [[0] * n for _ in range(n)]

    def link(a, b):
        adj[a][b] = adj[b][a] = 1

    for i in range(5):
        link(i, (i + 1) % 5)
        link(5 + i, 5 + (i + 2) % 5)
        link(i, 5 + i)
    return adj


def cube_adjacency():
    """The 3-cube on vertex set {0..7}, edges between weight-1 xor pairs."""
    adj = [[0] * 8 for _ in range(8)]
    for u in range(8):
        for v in range(8):
            if bin(u ^ v).count("1") == 1:
                adj[u][v] = 1
    return adj


def cycle_adjacency(n):
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        adj[i][(i + 1) % n] = adj[(i + 1) % n][i] = 1
    return adj


def complete_bipartite_adjacency(a, b):
    n = a + b
    adj = [[0] * n for _ in range(n)]
    for i in range(a):
        for j in range(a, n):
            adj[i][j] = adj[j][i] = 1
    return adj
