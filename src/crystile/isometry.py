"""Isometries of Euclidean n-space relative to a rational Gram frame.

A Frame fixes a basis of the translation space through its Gram matrix G
(rational, symmetric, positive definite).  Points and translation vectors
are tuples of rationals in that basis; an isometry acts as x |-> L x + t
with L rational and Gram-orthogonal (L^T G L = G), which is exactly the
condition that the Cartesian image of L is orthogonal.  This keeps every
piece of group arithmetic exact: hexagonal point groups have irrational
Cartesian matrices but integer matrices in a lattice-adapted basis.

An isometry stores only its int form (m, A, B) = m (L, t), m > 0 least, and
forms the rationals L and t when they are read.  Gram-orthogonality is
tested on ints (is_gram_orthogonal) only where values arrive from outside:
in the public constructor, which user code, the JSON loader,
translation_iso, linear_about and the re-expression embedding call.
compose, inverse and the package's other producers are Gram-orthogonal by
construction and build their results unchecked (Isometry._of_ints).  The
inverse of an L from frame s to frame t is L^-1 = G_s^-1 L^T G_t, a product
of the frames' int Grams, so no isometry is inverted by elimination.  The
metric d_O is sqrt(p) + sqrt(q) of exact rationals p, q, which decide
witness sizes exactly.  One int core, _int_terms, gives them as int pairs
(num, den) from (m, A, B) and the origin scaled once to ints; with
tr L^-1 = tr L it reads q off the trace of A.  The witness search works on
those pairs, and iso_terms reads them as Q.  That sum, the operator norm of
a general matrix and orthogonal square roots are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import add

import numpy as np

from .rational import Q, sqrt_float
from .linalg import (
    Mat,
    Vec,
    _reduced,
    gram_norm2,
    identity_mat,
    int_dot,
    int_mat_mul,
    int_mat_vec,
    int_rref,
    integral,
    integral_rows,
    mat,
    mat_det,
    mat_vec,
    transpose,
    vadd,
    vec,
    vsub,
    zero_vec,
)

OP_NORM_TOL = 1e-9


class FrameError(ValueError):
    pass


class IsometryError(ValueError):
    pass


@dataclass(frozen=True)
class Frame:
    """Rational Gram matrix defining the inner product; basis spans the lattice."""

    dim: int
    gram: Mat
    _hash: int = field(init=False, repr=False, compare=False)  # frames key caches: hash once

    def __post_init__(self):
        if self.dim < 1:
            raise FrameError("dimension must be >= 1")
        g = mat(self.gram)
        object.__setattr__(self, "gram", g)
        if len(g) != self.dim or any(len(row) != self.dim for row in g):
            raise FrameError("Gram matrix shape mismatch")
        if g != transpose(g):
            raise FrameError("Gram matrix not symmetric")
        # positive definiteness via leading principal minors, exactly
        for k in range(1, self.dim + 1):
            minor = mat_det(tuple(row[:k] for row in g[:k]))
            if minor <= 0:
                raise FrameError(f"leading principal minor {k} is not positive")
        object.__setattr__(self, "_hash", hash((self.dim, g)))

    def __hash__(self):
        return self._hash

    def norm2(self, v: Vec):
        return gram_norm2(self.gram, vec(v, self.dim))

    def norm(self, v: Vec) -> float:
        return sqrt_float(self.norm2(v))


@lru_cache(maxsize=None)
def standard_frame(dim: int) -> Frame:
    return Frame(dim, identity_mat(dim))


@lru_cache(maxsize=None)
def hexagonal_frame() -> Frame:
    return Frame(2, mat([[1, Q(-1, 2)], [Q(-1, 2), 1]]))


@lru_cache(maxsize=None)
def embedding(frame: Frame) -> np.ndarray:
    """Floating Cartesian factor C with C^T C ~= G (upper Cholesky)."""
    g = np.array([[float(x) for x in row] for row in frame.gram], dtype=float)
    lower = np.linalg.cholesky(g)
    return lower.T


@lru_cache(maxsize=None)
def embedding_inv(frame: Frame) -> np.ndarray:
    return np.linalg.inv(embedding(frame))


@lru_cache(maxsize=None)
def int_gram(frame: Frame):
    """(E, E G), E the least common denominator of the Gram entries."""
    return integral_rows(frame.gram)


def is_gram_orthogonal(k, m, source, target) -> bool:
    """Whether L = M / k (int k > 0, int M) has L^T G_t L == G_s, given the
    int_gram pairs source = (E_s, E_s G_s) and target = (E_t, E_t G_t): as
    E_s M^T (E_t G_t) M == k^2 E_t (E_s G_s).  Equal frames give det L = +-1."""
    (es, egs), (et, egt) = source, target
    pulled = int_mat_mul(transpose(m), int_mat_mul(egt, m))
    f = k * k * et
    if f == es:
        return pulled == egs
    return all(es * p == f * g for rp, rg in zip(pulled, egs) for p, g in zip(rp, rg))


@lru_cache(maxsize=None)
def int_inv_gram(frame: Frame):
    """(F, F G^-1), F the least common denominator of the entries of G^-1:
    int_rref takes [EG | E I] (int_gram) to [d I | R], G^-1 = R / d, d > 0."""
    (e, eg), n = int_gram(frame), frame.dim
    aug = [(*row, *(e * (i == j) for j in range(n))) for i, row in enumerate(eg)]
    d = int_rref(aug, n)[1]
    return _reduced(d, [tuple(row[n:]) for row in aug])


@lru_cache(maxsize=None)
def _inv_gram_diag(frame: Frame):
    """Diagonal of G^-1, once per frame: (G^-1)_ii bounds |x_i|^2 by ||x||_G^2."""
    f, inv = int_inv_gram(frame)
    return tuple(Q(inv[i][i], f) for i in range(frame.dim))


@dataclass(frozen=True, init=False)
class Isometry:
    """x |-> linear x + translation, mapping `frame` coordinates to `target`.

    Most isometries are endomorphisms of one frame (target == frame); maps
    with distinct frames arise from conjugacy searches between groups whose
    lattices carry different Gram matrices.  Only frame, target and the int
    form _ints = (m, A, B) = m (linear, translation), m > 0 least, are stored
    and compared; linear and translation are formed when first read.  This
    constructor checks linear^T G_target linear == G_source
    (is_gram_orthogonal) on outside values; _of_ints does not.
    """

    frame: Frame
    target: Frame
    _ints: tuple

    def __init__(self, frame: Frame, linear: Mat, translation: Vec, target: Frame = None):
        linear, translation = mat(linear), vec(translation)
        target = frame if target is None else target
        n = frame.dim
        if target.dim != n:
            raise IsometryError("frame dimension mismatch")
        if {len(linear), len(translation), *map(len, linear)} != {n}:
            raise IsometryError("shape mismatch")
        m, (*a, b) = integral_rows((*linear, translation))
        source = int_gram(frame)
        if not is_gram_orthogonal(m, a, source, source if target is frame else int_gram(target)):
            raise IsometryError("linear part is not Gram-orthogonal")
        self.__dict__.update(frame=frame, target=target, _ints=(m, tuple(a), b))

    @classmethod
    def _of_ints(cls, frame: Frame, m, a, b, target: Frame) -> "Isometry":
        """x |-> (A x + B) / m from frame to target, for an int m > 0 and int
        A, B that make a Gram-orthogonal L = A / m: the isometry the public
        constructor makes of those values, with _ints reduced by
        g = gcd(m, entries), and no second Gram check."""
        m, (*a, b) = _reduced(m, (*a, b))
        iso = object.__new__(cls)
        iso.__dict__.update(frame=frame, target=target, _ints=(m, tuple(a), b))
        return iso

    @cached_property
    def linear(self) -> Mat:
        m, a, _ = self._ints
        return tuple(tuple(Q(x, m) for x in row) for row in a)

    @cached_property
    def translation(self) -> Vec:
        m, _, b = self._ints
        return tuple(Q(x, m) for x in b)

    def __call__(self, x: Vec) -> Vec:
        return vadd(mat_vec(self.linear, vec(x, self.frame.dim)), self.translation)

    def is_identity(self) -> bool:
        return self.is_translation() and not any(self._ints[2])

    def is_translation(self) -> bool:
        m, a, _ = self._ints
        return self.frame == self.target and all(x == m * (i == j) for i, row in enumerate(a)
                                                  for j, x in enumerate(row))


def identity_iso(frame: Frame) -> Isometry:
    n = frame.dim
    return Isometry._of_ints(frame, 1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
                             (0,) * n, frame)


def translation_iso(frame: Frame, v) -> Isometry:
    return Isometry(frame, identity_mat(frame.dim), vec(v))


def linear_about(frame: Frame, m: Mat, center=None) -> Isometry:
    """The isometry with linear part m fixing `center` (default: the origin)."""
    m = mat(m)
    if center is None:
        return Isometry(frame, m, zero_vec(frame.dim))
    c = vec(center, frame.dim)
    return Isometry(frame, m, vsub(c, mat_vec(m, c)))


def compose(a: Isometry, b: Isometry) -> Isometry:
    """a after b.  Frames must chain: b maps into a's source frame.  On the
    int forms: (A_a A_b, A_a B_b + m_b B_a) over m_a m_b."""
    if b.target != a.frame:
        raise IsometryError("frame mismatch in composition")
    (ma, aa, ba), (mb, ab, bb) = a._ints, b._ints
    return Isometry._of_ints(b.frame, ma * mb, int_mat_mul(aa, ab),
                             tuple(map(add, int_mat_vec(aa, bb), (mb * x for x in ba))), a.target)


def inverse(a: Isometry) -> Isometry:
    """x |-> L^-1 (x - t) from a's target back to its frame.  L^T G_t L = G_s
    gives L^-1 = G_s^-1 L^T G_t = N / (F m E) for the int Grams F G_s^-1 and
    E G_t (int_inv_gram, int_gram) and N = (F G_s^-1) A^T (E G_t), so the
    inverse is (m N, -N B) over F E m^2: no elimination."""
    m, am, b = a._ints
    (f, fgi), (e, eg) = int_inv_gram(a.frame), int_gram(a.target)
    n = int_mat_mul(fgi, int_mat_mul(transpose(am), eg))
    return Isometry._of_ints(a.target, f * e * m * m, tuple(tuple(m * x for x in row) for row in n),
                             tuple(-x for x in int_mat_vec(n, b)), a.frame)


@dataclass(frozen=True)
class IsoDecomposition:
    """Unique product decomposition about an origin O: a = trans . ortho."""

    origin: Vec
    trans_part: Vec
    ortho_part: Mat

    def recompose(self, frame: Frame) -> Isometry:
        about = linear_about(frame, self.ortho_part, self.origin)
        return compose(translation_iso(frame, self.trans_part), about)


def decompose(a: Isometry, origin) -> IsoDecomposition:
    """Split a into (translation by a(O) - O) . (orthogonal map fixing O)."""
    if a.frame != a.target:
        raise IsometryError("decomposition requires an endomorphism of one frame")
    o = vec(origin)
    if len(o) != a.frame.dim:
        raise IsometryError("origin dimension mismatch")
    return IsoDecomposition(origin=o, trans_part=vsub(a(o), o), ortho_part=a.linear)


# --- floating-point norms --------------------------------------------------

def _sym_eigen_max(b: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix.

    n <= 2 uses the cancellation-free characteristic-polynomial root
    ((b11-b22)^2 + 4 b12^2 stays exact where tr^2 - 4 det would cancel);
    larger sizes use the LAPACK symmetric eigensolver, since closed-form
    cubic roots lose half the machine precision on the repeated singular
    values that isometry differences always have.
    """
    n = b.shape[0]
    if n == 1:
        return max(b[0, 0], 0.0)
    if n == 2:
        half_tr = (b[0, 0] + b[1, 1]) / 2.0
        disc = math.hypot((b[0, 0] - b[1, 1]) / 2.0, b[0, 1])
        return max(half_tr + disc, 0.0)
    return max(float(np.linalg.eigvalsh(b)[-1]), 0.0)


def operator_norm(frame: Frame, m) -> float:
    """Operator norm of the linear map m (frame coordinates) on E^n.

    Computed as the largest singular value of the Cartesian conjugate
    C m C^{-1}; accuracy ~1e-12, documented tolerance 1e-9.
    """
    if isinstance(m, np.ndarray):
        a = embedding(frame) @ m @ embedding_inv(frame)
    else:
        mf = np.array([[float(x) for x in row] for row in m], dtype=float)
        a = embedding(frame) @ mf @ embedding_inv(frame)
    return math.sqrt(_sym_eigen_max(a.T @ a))


def iso_terms(origin, a: Isometry, b: Isometry = None):
    """Exact (p, q) with d_O(a, b) = sqrt(p) + sqrt(q), n <= 3, b by default the
    identity: _int_terms of b^-1 a, as Q.  Isometries preserve both terms, so
    d_O(a, b) = d_O(b^-1 a, 1)."""
    if a.frame != a.target or b is not None and (a.frame != b.frame or a.target != b.target):
        raise IsometryError("metric requires endomorphisms of one frame")
    o = vec(origin)
    if len(o) != a.frame.dim:
        raise IsometryError("the metric needs n <= 3 and an origin of the frame's dimension")
    if b is not None:
        a = compose(inverse(b), a)
    (pn, pd), (qn, qd) = _int_terms(a, *integral(o))
    return Q(pn, pd), Q(qn, qd)


def _int_terms(a: Isometry, e, eo):
    """d_O(a, 1) = sqrt(p) + sqrt(q) for an endomorphism a of an n-frame,
    n <= 3, and the origin O = eO / e (int e > 0, int vector eO), as int
    pairs ((pn, pd), (qn, qd)) with p = pn / pd and q = qn / qd, pd, qd > 0.
    For a: x |-> (A x + B) / m, p = |a(O) - O|^2_G = y.(EG)y / (E m^2 e^2)
    for y = A eO + e B - m eO (int_gram's E, EG), and the orthogonal L = A / m
    has ||L - 1|| = 2 if det A < 0, and else sqrt(n - tr L^-1) (2 - 2 cos t
    for a turn by t, 0 for L = 1), where L^-1 = G^-1 L^T G gives
    tr L^-1 = tr L: q = 4 or n - tr A / m."""
    n = len(eo)
    if n > 3:
        raise IsometryError("the metric needs n <= 3 and an origin of the frame's dimension")
    m, am, bm = a._ints
    y = [x + e * t - m * c for x, t, c in zip(int_mat_vec(am, eo), bm, eo)]
    g, eg = int_gram(a.frame)
    p = int_dot(y, int_mat_vec(eg, y)), g * (m * e) ** 2
    if mat_det(am) < 0:
        return p, (4, 1)
    return p, (n * m - sum(am[i][i] for i in range(n)), m)


def iso_distance(origin, a: Isometry, b: Isometry) -> float:
    """d_O(a, b) = |a(O) - b(O)|_G + ||A - B||_op."""
    p, q = iso_terms(origin, a, b)
    return sqrt_float(p) + sqrt_float(q)


# --- orthogonal square roots ----------------------------------------------

def ortho_sqrt(alpha: np.ndarray) -> np.ndarray:
    """Square root of a Cartesian orthogonal matrix via halved rotation angles.

    The matrix is block-diagonalized into planar rotation blocks R(theta),
    theta in (-pi, pi), and fixed directions; halving every angle gives
    beta with beta^2 = alpha and ||beta - 1||_op <= ||alpha - 1||_op.
    A (-1) eigenvalue block (||alpha - 1||_op = 2) admits no such choice
    of angles and is rejected.
    """
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.shape[0]
    if not np.allclose(alpha.T @ alpha, np.eye(n), atol=1e-9):
        raise ValueError("input is not orthogonal")
    dev = np.linalg.svd(alpha - np.eye(n), compute_uv=False)[0]
    if dev >= 2.0 - OP_NORM_TOL:
        raise ValueError(f"||alpha - 1||_op = {dev:.6f} admits a (-1) block; "
                         "no halved-angle square root exists")
    vals, vecs = np.linalg.eig(alpha)
    # halved angles: principal square root of each unit eigenvalue
    angles = np.angle(vals)
    roots = np.exp(0.5j * angles)
    beta = vecs @ np.diag(roots) @ np.linalg.inv(vecs)
    beta = np.real_if_close(beta, tol=1e6)
    beta = np.real(beta)
    if not np.allclose(beta @ beta, alpha, atol=1e-9):
        raise ArithmeticError("square-root reconstruction failed")
    return beta

