"""Construction pipelines: matrix algebra closure over F_q, the [X | aI]
block builder, and the scheme/graph/Hadamard routes to LCD subspace codes.

Every pipeline re-verifies its conclusion: the emitted code is checked to be
an LCD subspace code by direct intersection computations, and the key product
identity N_x N_y^T = a_x a_y I_t, for N_x = [X | a_x I_t], is evaluated on
explicit pairs as X_x X_y^T = 0, to which it is equivalent.  A pipeline
that cannot verify its output raises instead of emitting.

Scheme arithmetic stays over the integers until the final reduction mod p.
The displayed product identities for the 3-class Gramian scheme are verified
with the B3 coefficients of the two squares carrying a factor m; the factor
is forced by valency counting (row sums of B1^2 must equal the squared
valency) and the identities hold exactly in this form on all instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import product as _cartesian

import numpy as np

from .codes import (
    PAIR_BUDGET,
    CodeParams,
    SubspaceCode,
    classical_lcd_check,
    is_lcd_subspace_code,
    params,
    sampled_min_distance,
)
from .errors import (
    BadAlphabet,
    DimensionBlowup,
    DimensionMismatch,
    DivisibilityFails,
    GramFailure,
    HypothesisFailed,
    IdentityFails,
    IndexOutOfRange,
    InternalInconsistency,
    InvalidSpec,
    NotAnAutomorphism,
    NotBushType,
    NotDistanceRegular,
    NotEquitable,
    NotRegular,
    NotUnbiased,
    OddN,
    PairBudgetExceeded,
    UnequalCells,
    VerificationFailed,
    ZeroAlpha,
)
from .drg import orbit_partition, scheme_from_drg
from .gf import BlockRankFactor, field_new
from .hadamard import UnbiasedSet, gramian_B, is_bush, partition_quotients_of_set
from .linalg import as_int_matrix, as_integer, int_matmul, kron, reduce_mod, square_root_or_none
from .schemes import quotient_matrices, scheme_from_matrices
from .subspaces import Subspace

ENUMERATION_CAP = 1 << 20
SAMPLE_SIZE = 10 ** 4
ALGEBRA_DIM_CAP = 64


class AlgebraBasis:
    """Linearly independent spanning set of a matrix algebra over F_q.

    Closed under products of length >= 1 (non-unital: the identity appears
    only if the generators produce it).  Basis elements are nonzero.
    """

    __slots__ = ("field", "t", "basis")

    def __init__(self, field, t, basis):
        self.field = field
        self.t = t
        self.basis = tuple(basis)

    @property
    def dim(self):
        return len(self.basis)

    def __repr__(self):
        return f"AlgebraBasis(q={self.field.q}, t={self.t}, dim={self.dim})"


def algebra_closure(field, generators, cap=ALGEBRA_DIM_CAP):
    """Basis of the algebra generated by the given matrices (products of
    length >= 1), built by a worklist closure with exact span tests.

    The flattened basis is kept as rref rows R with pivot columns piv, so a
    matrix with flattened form v lies in the span iff v - v[piv] R is zero:
    one ``matmul``.  A matrix outside it joins the basis, and R and piv
    become the rank-sized part of ``rref([R; v])``.  Zero generators are
    dropped; at least one generator must survive.
    """
    gens = [field.asmatrix(G) for G in generators]
    if not gens:
        raise InvalidSpec("algebra closure needs at least one generator")
    t = gens[0].shape[0]
    for G in gens:
        if G.shape != (t, t):
            raise DimensionMismatch(f"generator shape {G.shape}, expected {(t, t)}")
    gens = [G for G in gens if G.any()]
    if not gens:
        raise InvalidSpec("all generators are zero")

    R = np.zeros((0, t * t), dtype=np.int64)
    piv = ()

    def extends(M):
        nonlocal R, piv
        v = M.reshape(1, -1)
        if not field.sub(v, field.matmul(v[:, piv], R)).any():
            return False
        R, piv = field.rref(np.vstack([R, v]))
        R = R[:len(piv)]
        return True

    basis = []
    queue = []

    def join(M):
        if len(basis) + 1 > cap:
            raise DimensionBlowup(f"algebra dimension exceeded the cap of {cap}")
        basis.append(M)
        queue.append(M)

    for G in gens:
        if extends(G):
            join(G)
    while queue:
        new = queue.pop(0)
        snapshot = list(basis)
        for other in snapshot:
            for prod in (field.matmul(new, other), field.matmul(other, new)):
                if extends(prod):
                    join(prod)
    return AlgebraBasis(field, t, basis)


def build_block(field, X, alpha):
    """[X | alpha * I_t]: the generator block of one codeword; alpha != 0."""
    X = field.asmatrix(X)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise DimensionMismatch(f"X must be square, got {X.shape}")
    alpha = _alpha(field, alpha)
    t = X.shape[0]
    N = np.zeros((t, 2 * t), dtype=np.int64)
    N[:, :t] = X
    N[np.arange(t), t + np.arange(t)] = alpha
    return N


def _alpha(field, x):
    """x as the encoding of a nonzero element of field."""
    x = as_integer(x, "alpha")
    if x == 0:
        raise ZeroAlpha("alpha must be a nonzero field element")
    if not 0 < x < field.q:
        raise InvalidSpec(f"alpha encoding {x} outside [1, {field.q})")
    return x


@dataclass(frozen=True)
class ClassicalCodeReport:
    """Outcome of the [M_i | aI] classical-code construction."""

    kind: str
    field: object
    t: int
    alpha: int
    generator: np.ndarray
    lcd_verified: bool
    hypotheses: tuple
    scheme_index: int

    @property
    def length(self):
        return 2 * self.t


def lcd_code_thm42(scheme, partition, index, p, r=1, alpha=1):
    """[M_i mod q | aI_t] generates a [2t, t]_q LCD code when every
    p_{i,i}^k is divisible by p and all cells share one size."""
    field = field_new(p, r)
    index = as_integer(index, "class index")
    d = scheme.classes
    if not 0 <= index <= d:
        raise IndexOutOfRange(f"class index {index} outside 0..{d}")
    if scheme.size != partition.size:
        raise DimensionMismatch(
            f"scheme on {scheme.size} points vs partition on {partition.size}")
    if not partition.equal_cells:
        raise UnequalCells(
            f"cell sizes {sorted(set(partition.cell_sizes))} are not all equal")
    bad = np.flatnonzero(scheme.tensor[index, index, :] % p)
    if bad.size:
        k = int(bad[0])
        raise DivisibilityFails(
            f"p = {p} does not divide p_({index},{index})^{k} = "
            f"{int(scheme.tensor[index, index, k])}", witness=k)
    quot = quotient_matrices(partition, scheme)
    M = reduce_mod(quot.quotients[index], field)
    N = build_block(field, M, alpha)
    if not classical_lcd_check(field, N):
        raise VerificationFailed("generated code failed the dual-intersection check")
    hyps = (("cells have equal size", True),
            (f"p divides every p_({index},{index})^k", True))
    return ClassicalCodeReport("thm42", field, partition.t, int(alpha), N,
                               True, hyps, index)


@dataclass(frozen=True)
class ConstructionReport:
    """Verified LCD subspace code with its provenance and honesty flags."""

    kind: str
    field: object
    t: int
    code: SubspaceCode
    params: CodeParams
    hypotheses: tuple
    lcd_verified: bool
    enumeration_complete: bool
    distance_exhaustive: bool
    identity_pairs_checked: int
    identity_all_pairs: bool
    alphas: tuple
    include_zero_x: bool
    algebra_dim: int
    tallies: dict
    source: dict | None = None


def subspace_code_from_algebra(basis, alphas=None, *, include_zero_x=False,
                               cap=ENUMERATION_CAP, sample=SAMPLE_SIZE, seed=0,
                               pair_budget=PAIR_BUDGET, kind="algebra",
                               hypotheses=(), source=None):
    """Row spaces of [X | aI_t] over the nonzero algebra elements X.

    Enumeration is complete when q^dim <= cap, otherwise a seeded random
    sample of coefficient vectors is taken and the report is flagged
    truncated with the minimum distance an upper bound.  The emitted code is
    independently verified: the full LCD pairwise check plus the product
    identity N_x N_y^T = a_x a_y I_t on all pairs when there are at most 100
    codewords and on 100 seeded random pairs otherwise.
    """
    f = basis.field
    t = basis.t
    a = basis.dim
    if a == 0:
        raise InvalidSpec("empty algebra basis")
    alphas = (1,) if alphas is None else alphas
    alphas = tuple(dict.fromkeys(_alpha(f, x) for x in alphas))

    total = f.q ** a
    complete = total <= cap

    # an element is its coefficient row times the flattened basis, one
    # product over F_q; both operands lie in [0, q) by construction
    flat = np.reshape(basis.basis, (a, t * t))

    def element(coeffs):
        return f._product(np.array([coeffs], dtype=np.int64), flat).reshape(t, t)

    if complete:
        coeff_iter = (c for c in _cartesian(range(f.q), repeat=a) if any(c))
    else:
        rng = np.random.default_rng((seed, a, f.q))

        def _sampled():
            produced = 0
            while produced < sample:
                c = rng.integers(0, f.q, size=a)
                if c.any():
                    produced += 1
                    yield c

        coeff_iter = _sampled()

    reps = {}

    def add(X):
        for al in alphas:
            reps.setdefault(Subspace(f, 2 * t, build_block(f, X, al)), (X, al))

    elements = 0
    for coeffs in coeff_iter:
        X = element(coeffs)
        if not X.any():
            raise InternalInconsistency(
                "independent basis produced zero from nonzero coefficients")
        add(X)
        elements += 1
    tallies = {"x_alpha_pairs": elements * len(alphas), "row_spaces": len(reps)}
    if include_zero_x:
        add(np.zeros((t, t), dtype=np.int64))
        tallies["x_alpha_pairs_with_zero"] = (elements + 1) * len(alphas)
        tallies["row_spaces_with_zero"] = len(reps)
    words = list(reps)

    code = SubspaceCode(words)
    if len(code) != len(words):
        raise InternalInconsistency("row-space keys were not unique")

    check = is_lcd_subspace_code(code)
    if not check.ok:
        raise VerificationFailed(
            "emitted code is not an LCD subspace code", witness=check.witness)

    ordered = [reps[w] for w in code]
    _assert_scaling_invariance(f, t, ordered[0], seed)
    size = len(code)
    all_pairs = size * size <= 100 * 100 and size <= 100
    if all_pairs:
        pair_list = [(i, j) for i in range(size) for j in range(size)]
    else:
        rnd = random.Random(seed)
        pair_list = [(rnd.randrange(size), rnd.randrange(size))
                     for _ in range(100)]
    _check_product_identity(f, t, ordered, pair_list)

    distance_exhaustive = True
    try:
        prm = params(code, pair_budget=pair_budget, allow_degenerate=True)
    except PairBudgetExceeded:
        distance_exhaustive = False
        d_ub = sampled_min_distance(code, samples=sample, seed=seed)
        dims = code.dims
        prm = CodeParams(code.n, len(code), d_ub, dims, f.q, len(dims) == 1)

    if prm.n != 2 * t or prm.dims != (t,):
        raise InternalInconsistency(
            f"expected a constant dimension code with K = {{{t}}} in 2t = {2 * t}")

    return ConstructionReport(
        kind=kind, field=f, t=t, code=code, params=prm,
        hypotheses=tuple(hypotheses), lcd_verified=True,
        enumeration_complete=complete,
        distance_exhaustive=distance_exhaustive and complete,
        identity_pairs_checked=len(pair_list), identity_all_pairs=all_pairs,
        alphas=alphas, include_zero_x=include_zero_x, algebra_dim=a,
        tallies=tallies, source=source)


def _check_product_identity(f, t, ordered, pair_list):
    """N_i N_j^T = a_i a_j I_t for each (i, j) of pair_list, N_i = [X_i | a_i I];
    raises with the first failing pair in pair_list order.

    As N_i N_j^T = X_i X_j^T + a_i a_j I_t exactly, the identity is checked
    as X_i X_j^T = 0, of inner dimension t, with no block built.  One
    BlockRankFactor holds the X_j^T of every distinct partner j side by side,
    in first-seen order, and each distinct X_i takes one product with it, t x
    (t * #partners) entries, rather than one product per pair: the factor
    tells which of its blocks the product leaves nonzero.  With all pairs
    that is one product per codeword.
    """
    if not pair_list:
        return
    block = {j: k for k, j in enumerate(dict.fromkeys(j for _, j in pair_list))}
    factor = BlockRankFactor(f, np.hstack([ordered[j][0].T for j in block]), [t] * len(block))
    nonzero = {}
    for i, j in pair_list:
        if i not in nonzero:
            nonzero[i] = factor.nonzero_blocks(ordered[i][0])
        if nonzero[i][block[j]]:
            raise VerificationFailed(
                "product identity N_x N_y^T = a_x a_y I failed", witness=(i, j))


def _assert_scaling_invariance(f, t, rep, seed):
    # row spaces of [X | aI] and [bX | baI] must coincide for b != 0
    X, al = rep
    if f.q == 2:
        return
    beta = random.Random(f"{seed}-scale").randrange(1, f.q)
    S1 = Subspace(f, 2 * t, build_block(f, X, al))
    S2 = Subspace(f, 2 * t, build_block(f, f.mul(np.int64(beta), X),
                                        f.mul(np.int64(beta), np.int64(al))))
    if S1 != S2:
        raise InternalInconsistency("scalar scaling changed a row space")


# --- schemes verified by product identities: Gramian 3-class, Bush-type ---


def _verified_scheme(mats, table, labels):
    """scheme_from_matrices(mats), once each product identity
    mats[i] mats[j] = sum_k c_k mats[k] of table {(i, j): {k: c_k}} holds
    exactly over the integers; then its intersection tensor must agree with
    the table on those rows.  labels % (i, j) names an identity."""
    for (i, j), coeffs in table.items():
        lhs = int_matmul(mats[i], mats[j])
        rhs = sum((c * mats[k] for k, c in coeffs.items()), np.zeros_like(lhs))
        if not (lhs == rhs).all():
            bad = np.argwhere(lhs != rhs)[0]
            raise IdentityFails(
                f"product identity {labels % (i, j)} fails at {tuple(bad)}",
                witness=(i, j, tuple(int(v) for v in bad)))
    scheme = scheme_from_matrices(mats)
    for (i, j), coeffs in table.items():
        want = [coeffs.get(k, 0) for k in range(len(mats))]
        if list(scheme.tensor[i, j, :]) != want:
            raise InternalInconsistency(
                f"tensor row p_({i},{j})^. disagrees with the {labels % (i, j)} identity")
    return scheme


def _murh_coefficient_table(n, m):
    h = n // 2
    return {
        (1, 1): {0: (2 * n * n + n) * m, 1: (n * n + 3 * h) * (m - 1),
                 2: (n * n + h) * (m - 1), 3: (n * n + n) * m},
        (2, 2): {0: (2 * n * n - n) * m, 1: (n * n - h) * (m - 1),
                 2: (n * n - 3 * h) * (m - 1), 3: (n * n - n) * m},
        (1, 2): {1: (n * n - h) * (m - 1), 2: (n * n + h) * (m - 1), 3: n * n * m},
        (1, 3): {1: 2 * n * n + n - 1, 2: 2 * n * n + n},
        (2, 3): {1: 2 * n * n - n, 2: 2 * n * n - n - 1},
    }


def murh_scheme(B1, B2, B3, n, m):
    """3-class scheme {I, B1, B2, B3} from the Gramian of a regular unbiased
    set, with all five product identities verified exactly over the integers
    and the intersection tensor cross-checked against their coefficients."""
    B1, B2, B3 = (as_int_matrix(B) for B in (B1, B2, B3))
    if n % 2:
        raise OddN(f"n must be even, got {n}")
    N = 4 * n * n * (m + 1)
    for name, B in (("B1", B1), ("B2", B2), ("B3", B3)):
        if B.shape != (N, N):
            raise DimensionMismatch(f"{name} has shape {B.shape}, expected {(N, N)}")
    mats = [np.eye(N, dtype=np.int64), B1, B2, B3]
    return _verified_scheme(mats, _murh_coefficient_table(n, m), "B%d*B%d")


def _bush5_coefficients(n, m):
    h = n // 2
    sq44 = {0: (2 * n * n - n) * m, 1: (n * n - n) * m, 2: (n * n - n) * m,
            3: (n * n - h) * (m - 1), 4: (n * n - h) * (m - 1),
            5: (n * n - 3 * h) * (m - 1)}
    p24 = {3: (2 * n - 1) * n, 4: (2 * n - 2) * n, 5: (2 * n - 2) * n}
    p34 = {2: m * n, 4: (m - 1) * n, 5: (m - 1) * n}
    return {
        (1, 1): {0: 2 * n - 1, 1: 2 * n - 2},
        (1, 2): {2: 2 * n - 1},
        (1, 3): {3: 2 * n - 1},
        (1, 4): {4: n - 1, 5: n},
        (1, 5): {4: n, 5: n - 1},
        (2, 2): {0: 2 * n * (2 * n - 1), 1: 2 * n * (2 * n - 1),
                 2: 2 * n * (2 * n - 2)},
        (2, 3): {4: 2 * n, 5: 2 * n},
        (2, 4): p24,
        (2, 5): p24,
        (3, 3): {0: 2 * m * n, 1: 2 * m * n, 3: 2 * n * (m - 1)},
        (3, 4): p34,
        (3, 5): p34,
        (4, 4): sq44,
        (5, 5): sq44,
        (4, 5): {1: n * n * m, 2: (n * n - n) * m, 3: (n * n - h) * (m - 1),
                 4: (n * n - 3 * h) * (m - 1), 5: (n * n - h) * (m - 1)},
    }


def _bush8_coefficients(n, m):
    mixed = {3: m * n, 6: (m - 1) * n, 7: (m - 1) * n}
    p36 = {4: 2 * n * (2 * n - 1), 5: 2 * n * (2 * n - 1),
           6: 2 * n * (2 * n - 2), 7: 2 * n * (2 * n - 2)}
    sq44 = {0: 2 * m * n, 1: 2 * m * n, 4: 2 * n * (m - 1)}
    sq66 = {0: 2 * (2 * n * n - n) * m, 1: 2 * (n * n - n) * m,
            2: 2 * n * n * m, 3: 2 * (n * n - n) * m,
            4: (2 * n * n - n) * (m - 1), 5: (2 * n * n - n) * (m - 1),
            6: (2 * n * n - n) * (m - 1), 7: (2 * n * n - 3 * n) * (m - 1)}
    return {
        (3, 3): {0: 4 * n * (2 * n - 1), 1: 4 * n * (2 * n - 1),
                 2: 4 * n * (2 * n - 1), 3: 4 * n * (2 * n - 2),
                 8: 4 * n * (2 * n - 1)},
        (3, 4): {6: 2 * n, 7: 2 * n},
        (3, 5): {6: 2 * n, 7: 2 * n},
        (3, 6): p36,
        (3, 7): p36,
        (4, 4): sq44,
        (5, 5): sq44,
        (4, 5): {2: 2 * m * n, 8: 2 * m * n, 5: 2 * n * (m - 1)},
        (4, 6): mixed,
        (5, 7): mixed,
        (4, 7): mixed,
        (5, 6): mixed,
        (6, 6): sq66,
        (7, 7): sq66,
        (6, 7): {8: 2 * (2 * n * n - n) * m, 2: 2 * (n * n - n) * m,
                 1: 2 * n * n * m, 3: 2 * (n * n - n) * m,
                 4: (2 * n * n - n) * (m - 1), 5: (2 * n * n - n) * (m - 1),
                 7: (2 * n * n - n) * (m - 1), 6: (2 * n * n - 3 * n) * (m - 1)},
    }


@dataclass(frozen=True)
class BushSchemes:
    five_class: object
    eight_class: object
    n: int
    m: int


def bush_schemes(uset):
    """The 5-class and 8-class schemes of a mutually unbiased Bush-type set.

    Verifies the Kronecker-block relation list of the 5-class scheme and the
    doubled-block identity list of the 8-class scheme exactly over the
    integers before handing the matrices to the scheme axioms.
    """
    if uset.kind != "hadamard":
        raise InvalidSpec("Bush-type schemes need Hadamard matrices")
    m = len(uset)
    if m < 2:
        raise InvalidSpec("need at least two matrices")
    for idx, H in enumerate(uset):
        if not is_bush(H):
            raise NotBushType(f"matrix {idx} is not Bush-type", witness=idx)
    B1, B2, _ = gramian_B(uset)
    order = uset.order
    n = int(np.sqrt(order)) // 2
    N = order * (m + 1)

    eye = np.eye
    ones = np.ones
    I2n = eye(2 * n, dtype=np.int64)
    J2n = ones((2 * n, 2 * n), dtype=np.int64)
    Im1 = eye(m + 1, dtype=np.int64)
    Jm1 = ones((m + 1, m + 1), dtype=np.int64)
    A0 = eye(N, dtype=np.int64)
    A1 = kron(Im1, kron(I2n, J2n - I2n))
    A2 = kron(Im1, kron(J2n - I2n, J2n))
    A3 = kron(Jm1 - Im1, kron(I2n, J2n))
    A4 = B1 - A3
    if not ((A4 == 0) | (A4 == 1)).all():
        bad = np.argwhere((A4 != 0) & (A4 != 1))[0]
        raise IdentityFails("B1 - A3 must be a 0/1 matrix",
                            witness=tuple(int(v) for v in bad))
    A5 = B2
    five = [A0, A1, A2, A3, A4, A5]
    scheme5 = _verified_scheme(five, _bush5_coefficients(n, m), "A%d*A%d")

    Z = np.zeros((N, N), dtype=np.int64)
    tilde = [
        np.block([[A0, Z], [Z, A0]]),
        np.block([[A1, Z], [Z, A1]]),
        np.block([[Z, A1], [A1, Z]]),
        np.block([[A2, A2], [A2, A2]]),
        np.block([[A3, Z], [Z, A3]]),
        np.block([[Z, A3], [A3, Z]]),
        np.block([[A4, A5], [A5, A4]]),
        np.block([[A5, A4], [A4, A5]]),
        np.block([[Z, A0], [A0, Z]]),
    ]
    scheme8 = _verified_scheme(tilde, _bush8_coefficients(n, m), "tildeA%d*tildeA%d")
    return BushSchemes(scheme5, scheme8, n, m)


# --- theorem pipelines ---


class _Hypotheses:
    def __init__(self):
        self.items = []

    def check(self, name, ok, witness=None):
        self.items.append((name, bool(ok)))
        if not ok:
            raise HypothesisFailed(name, witness)

    def attempt(self, name, fn, *errors):
        """Run fn; the listed error types become a failure of this hypothesis."""
        try:
            out = fn()
        except errors as exc:
            self.items.append((name, False))
            raise HypothesisFailed(name, getattr(exc, "witness", None)) from exc
        self.items.append((name, True))
        return out


def _as_unbiased_set(hyp, matrices, kind, weight):
    def build():
        if isinstance(matrices, UnbiasedSet):
            if matrices.kind != kind:
                raise InvalidSpec(f"expected {kind} matrices, got {matrices.kind}")
            return matrices
        return UnbiasedSet(matrices, kind, weight)

    return hyp.attempt("matrices are valid and pairwise unbiased", build,
                       NotUnbiased, InvalidSpec, GramFailure, BadAlphabet,
                       DimensionMismatch)


def _class_quotients(hyp, field, scheme, partition, classes):
    """The quotients mod p of the given classes of a scheme, once the
    partition is equitable for every relation, with cells of one size."""
    if scheme.size != partition.size:
        raise DimensionMismatch(
            f"scheme on {scheme.size} points vs partition on {partition.size}")
    hyp.check("partition cells have equal size", partition.equal_cells,
              witness=tuple(sorted(set(partition.cell_sizes))))
    quot = hyp.attempt("partition is equitable for every relation",
                       lambda: quotient_matrices(partition, scheme),
                       NotEquitable)
    return [reduce_mod(quot.quotients[i], field) for i in classes]


# Generator steps: step(hyp, field, given, source) checks the kind's
# hypotheses on its inputs `given`, adds to the informational `source`, and
# returns the generators of the algebra its code is built from.


def _scheme_step(hyp, field, given, source):
    """thm43: the quotients mod p of the given classes of a scheme."""
    scheme, partition, indices = given["scheme"], given["partition"], given["indices"]
    try:
        indices = sorted({as_integer(i, "class index") for i in indices})
    except TypeError:
        raise InvalidSpec(f"class indices must be iterable, got {indices!r}") from None
    if not indices:
        raise InvalidSpec("need at least one class index")
    d = scheme.classes
    for i in indices:
        if not 0 <= i <= d:
            raise IndexOutOfRange(f"class index {i} outside 0..{d}")
    generators = _class_quotients(hyp, field, scheme, partition, indices)
    bad = None
    for i in indices:
        for j in indices:
            rem = np.flatnonzero(scheme.tensor[i, j, :] % field.p)
            if rem.size:
                bad = (i, j, int(rem[0]), int(scheme.tensor[i, j, rem[0]]))
                break
        if bad:
            break
    hyp.check("p divides every p_(i,j)^k for i, j in I", bad is None, witness=bad)
    source["indices"] = indices
    return generators


def _cor45_step(hyp, field, given, source):
    """The scheme step on the distance scheme of a distance-regular graph,
    partitioned into the orbits of a group of automorphisms."""
    graph = given["graph"]
    part = hyp.attempt("group generators are graph automorphisms",
                       lambda: orbit_partition(given["group"], graph),
                       NotAnAutomorphism)
    met = hyp.attempt("graph is distance-regular", lambda: scheme_from_drg(graph),
                      NotDistanceRegular)
    hyp.check("orbits have equal length", part.equal_cells,
              witness=tuple(sorted(set(part.cell_sizes))))
    generators = _scheme_step(hyp, field, {**given, "scheme": met, "partition": part}, source)
    source["orbits"] = part.t
    return generators


def _unbiased_step(mkind, hyp, field, given, source):
    """thm51-55: the matrices of a Hadamard or weighing unbiased set, or with
    a partition their quotients."""
    uset = _as_unbiased_set(hyp, given["matrices"], mkind, given["weight"])
    s = square_root_or_none(uset.weight)
    label = "sqrt(order)" if mkind == "hadamard" else "sqrt(weight)"
    hyp.check(f"{label} is an integer", s is not None, witness=uset.weight)
    hyp.check(f"p divides {label}", s % field.p == 0, witness=(field.p, s))
    partition = given["partition"]
    if partition is None:
        generators = [reduce_mod(M.entries, field) for M in uset]
    else:
        hyp.check("partition cells have equal size", partition.equal_cells,
                  witness=tuple(sorted(set(partition.cell_sizes))))
        quots = hyp.attempt("partition is equitable for every matrix",
                            lambda: partition_quotients_of_set(uset, partition),
                            NotEquitable, UnequalCells, DimensionMismatch)
        generators = [reduce_mod(M, field) for M in quots]
    source["m"] = len(uset)
    source["order"] = uset.order
    if mkind == "weighing":
        source["weight"] = uset.weight
    return generators


def _derived_step(scheme_name, classes, divisor, hyp, field, given, source):
    """thm56/58/59: the quotients of the given classes of a scheme derived
    from a Hadamard unbiased set of order 4n^2, "murh" (the 3-class Gramian
    scheme) or a BushSchemes attribute; p must divide the divisor, n or n/2."""
    uset = _as_unbiased_set(hyp, given["matrices"], "hadamard", None)
    hyp.check("at least two matrices", len(uset) >= 2, witness=len(uset))
    s = square_root_or_none(uset.order)
    hyp.check("order is 4n^2", s is not None and s % 2 == 0,
              witness=uset.order)
    n = s // 2
    hyp.check("n is even", n % 2 == 0, witness=n)
    if scheme_name == "murh":
        B1, B2, B3 = hyp.attempt("all matrices are regular",
                                 lambda: gramian_B(uset), NotRegular)
        sch = murh_scheme(B1, B2, B3, n, len(uset))
    else:
        sch = getattr(hyp.attempt("all matrices are Bush-type",
                                  lambda: bush_schemes(uset), NotBushType),
                      scheme_name)
    value = n // 2 if divisor == "n/2" else n
    hyp.check(f"p divides {divisor}", value > 0 and value % field.p == 0,
              witness=(field.p, value))
    partition = given["partition"]
    if partition is None:
        raise InvalidSpec("this pipeline needs an equitable partition "
                          "of the derived scheme")
    source.update({"m": len(uset), "order": uset.order, "n": n,
                   "generator_classes": list(classes)})
    return _class_quotients(hyp, field, sch, partition, classes)


def _blocks(given):
    """Points of a scheme derived from m matrices of order v: (m + 1) v."""
    return len(given["matrices"][0]) * (len(given["matrices"]) + 1)


@dataclass(frozen=True)
class Pipeline:
    """One construction kind: the inputs it needs and those it may also
    take; points(inputs), the number of points a partition of it must cover,
    from inputs as they are read from files (a scheme, or a list of integer
    matrices), or None when it takes no partition; and its generator step
    (None for thm42, which builds a classical code with lcd_code_thm42)."""

    needs: tuple
    takes: tuple = ()
    points: object = None
    step: object = None

    def reads(self, name):
        return name in self.needs or name in self.takes


_HADAMARD_SET = partial(_unbiased_step, "hadamard")
_WEIGHING_SET = partial(_unbiased_step, "weighing")
PIPELINES = {
    "thm42": Pipeline(("scheme", "partition", "index"), points=lambda g: g["scheme"].size),
    "thm43": Pipeline(("scheme", "partition", "indices"), (), lambda g: g["scheme"].size,
                      _scheme_step),
    "cor45": Pipeline(("graph", "group", "indices"), step=_cor45_step),
    "thm51": Pipeline(("matrices",), step=_HADAMARD_SET),
    "thm52": Pipeline(("matrices",), ("weight",), step=_WEIGHING_SET),
    "thm54": Pipeline(("matrices", "partition"), (), lambda g: len(g["matrices"][0]),
                      _HADAMARD_SET),
    "thm55": Pipeline(("matrices", "partition"), ("weight",), lambda g: len(g["matrices"][0]),
                      _WEIGHING_SET),
    # the derived-scheme kinds check their partition once the scheme is built
    "thm56": Pipeline(("matrices",), ("partition",), _blocks,
                      partial(_derived_step, "murh", (1, 2), "n/2")),
    "thm58": Pipeline(("matrices",), ("partition",), _blocks,
                      partial(_derived_step, "five_class", (2, 3, 4, 5), "n/2")),
    "thm59": Pipeline(("matrices",), ("partition",), lambda g: 2 * _blocks(g),
                      partial(_derived_step, "eight_class", (3, 4, 5, 6, 7), "n")),
}
PIPELINE_KINDS = tuple(PIPELINES)


def theorem_pipeline(kind, *, p, r=1, scheme=None, partition=None, graph=None,
                     group=None, matrices=None, weight=None, indices=None,
                     index=None, alpha=1, sweep_alpha=False,
                     include_zero_x=False, cap=ENUMERATION_CAP,
                     sample=SAMPLE_SIZE, seed=0, pair_budget=PAIR_BUDGET):
    """Run one named construction from its row of PIPELINES.

    A structural input (scheme, partition, graph, group, matrices, weight,
    index, indices) the kind needs but is not given, or is given but the
    kind does not read, raises InvalidSpec.  Hypotheses are then verified
    one by one and the first failure raises HypothesisFailed with that
    hypothesis name.  Every kind but thm42 closes its generators into an
    algebra and builds the subspace code of that algebra (alpha is read by
    thm42 alone, the remaining options by the others).  Emitted reports
    always carry an independently verified code.
    """
    row = PIPELINES.get(kind)
    if row is None:
        raise InvalidSpec(f"unknown pipeline kind {kind!r}")
    given = {"scheme": scheme, "partition": partition, "graph": graph,
             "group": group, "matrices": matrices, "weight": weight,
             "index": index, "indices": indices}
    missing = [name for name in row.needs if given[name] is None]
    if missing:
        raise InvalidSpec(f"{kind} needs {', '.join(missing)}")
    for name, value in given.items():
        if value is not None and not row.reads(name):
            raise InvalidSpec(f"{kind} takes no {name}")
    if row.step is None:
        return lcd_code_thm42(scheme, partition, index, p, r, alpha)

    hyp = _Hypotheses()
    field = field_new(p, r)
    source = {"kind": kind, "p": int(p), "r": int(r)}
    generators = row.step(hyp, field, given, source)
    nonzero = [G for G in generators if G.any()]
    hyp.check("generators are nonzero mod p", len(nonzero) > 0,
              witness=len(generators))
    basis = algebra_closure(field, nonzero)
    alphas = tuple(range(1, field.q)) if sweep_alpha else (1,)
    return subspace_code_from_algebra(
        basis, alphas, include_zero_x=include_zero_x, cap=cap, sample=sample,
        seed=seed, pair_budget=pair_budget, kind=kind,
        hypotheses=tuple(hyp.items), source=source)
