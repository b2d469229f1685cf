"""Root systems of types A_n and B_n with Chevalley structure constants.

Roots are stored as integer coefficient vectors over the simple basis
``beta_1 .. beta_n``.  The type B realization follows the labeling with the
double bond between the first two nodes: ``beta_1`` is the short simple root,

    beta_1 = e_1,   beta_i = e_i - e_{i-1}  (i >= 2),

so the positive roots are exactly the vectors ``e_j`` and ``e_j +- e_k``
(k < j), written in the simple basis as

    beta_i + ... + beta_j                         (1 <= i <= j <= n)
    2 beta_1 + ... + 2 beta_i + beta_{i+1} + ... + beta_j   (1 <= i < j <= n).

For type A_n we take ``beta_i = e_i - e_{i+1}`` inside R^{n+1}, which matches
the upper-triangular Borel of SL_{n+1} used by the matrix cross-checks.

Structure constants N(alpha, beta), defined by [e_alpha, e_beta] =
N(alpha, beta) e_{alpha+beta}, are read off from explicit faithful matrix
realizations (sl(n+1), and so(2n+1) with the short root vectors rescaled so
all brackets stay integral) and then sign-normalized so that every
extraspecial pair gets a positive constant, which is Carter's convention.
The normalized table is uniquely determined by that convention; its defining
properties (antisymmetry, |N| = p+1, Jacobi via the adjoint representation)
are asserted by the test suite rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

FAMILY_A = "A"
FAMILY_B = "B"

# Largest rank of a root system; B_16 builds its structure-constant table in
# about 3.5 s, and every rank the command line accepts goes through here.
RANK_BOUND = 16

# -- sparse integer matrices (dict of (row, col) -> value) -------------------


def _smul(a: Mapping, b: Mapping) -> dict:
    out: dict = {}
    for (ra, ca), va in a.items():
        for (rb, cb), vb in b.items():
            if ca == rb:
                key = (ra, cb)
                val = out.get(key, 0) + va * vb
                if val:
                    out[key] = val
                else:
                    del out[key]
    return out


def _sbracket(a: Mapping, b: Mapping) -> dict:
    out = dict(_smul(a, b))
    for key, val in _smul(b, a).items():
        new = out.get(key, 0) - val
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


def _sscale(a: Mapping, c: int) -> dict:
    return {k: c * v for k, v in a.items()} if c else {}


# -- roots -------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Root:
    """A root, as an integer coefficient vector over the simple roots."""

    family: str
    rank: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        system = root_system(self.family, self.rank)
        if self.coeffs not in system.root_tuples:
            raise ValueError(f"{self.coeffs} is not a root of {self.family}_{self.rank}")

    @property
    def is_positive(self) -> bool:
        return any(c > 0 for c in self.coeffs)

    @property
    def is_negative(self) -> bool:
        return not self.is_positive

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def depth(self) -> int:
        """Height of the opposite root; positive for negative roots."""
        return -self.height

    @property
    def is_short(self) -> bool:
        system = root_system(self.family, self.rank)
        return system.norm_sq(self.coeffs) == system.min_norm_sq

    @property
    def is_long(self) -> bool:
        return not self.is_short

    def __neg__(self) -> "Root":
        return Root(self.family, self.rank, tuple(-c for c in self.coeffs))

    def try_add(self, other: "Root") -> "Root | None":
        total = tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        system = root_system(self.family, self.rank)
        if total in system.root_tuples:
            return Root(self.family, self.rank, total)
        return None

    def serialize(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        return self.serialize()


@dataclass(frozen=True)
class CommutatorTerm:
    """One factor u_{i*beta + j*alpha}(C * (-y)^i x^j) of the commutator formula."""

    i: int
    j: int
    root: Root
    constant: int


class RootSystem:
    """Root data for one (family, rank), built once and shared."""

    def __init__(self, family: str, rank: int):
        if family not in (FAMILY_A, FAMILY_B):
            raise ValueError(f"unknown family {family!r}")
        if family == FAMILY_A and rank < 1:
            raise ValueError("type A needs rank >= 1")
        if family == FAMILY_B and rank < 2:
            raise ValueError("type B needs rank >= 2")
        if rank > RANK_BOUND:
            raise ValueError(f"rank {rank} exceeds {RANK_BOUND}")
        self.family = family
        self.rank = rank
        self._pos_tuples = self._generate_positive()
        self.root_tuples = frozenset(self._pos_tuples) | frozenset(
            tuple(-c for c in t) for t in self._pos_tuples
        )
        self.min_norm_sq = min(self.norm_sq(t) for t in self._pos_tuples)
        self._positive_roots: list[Root] | None = None
        self._structure: _StructureConstants | None = None
        self._self_test()

    # -- generation ----------------------------------------------------------

    def _generate_positive(self) -> list[tuple[int, ...]]:
        n = self.rank
        out = []
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                coeffs = [0] * n
                for k in range(i, j + 1):
                    coeffs[k - 1] = 1
                out.append(tuple(coeffs))
        if self.family == FAMILY_B:
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    coeffs = [0] * n
                    for k in range(1, i + 1):
                        coeffs[k - 1] = 2
                    for k in range(i + 1, j + 1):
                        coeffs[k - 1] = 1
                    out.append(tuple(coeffs))
        out.sort(key=lambda t: (sum(t), t))
        return out

    def _self_test(self):
        # The realization must be closed under the simple reflections, and in
        # type B must reproduce s_1(beta_2) = 2 beta_1 + beta_2 and
        # s_2(beta_1) = beta_1 + beta_2.
        for t in self.root_tuples:
            for i in range(1, self.rank + 1):
                if self.reflect_tuple(t, i) not in self.root_tuples:
                    raise AssertionError(f"reflection t_{i} breaks root {t}")
        if self.family == FAMILY_B and self.rank >= 2:
            beta1 = self.simple_tuple(1)
            beta2 = self.simple_tuple(2)
            expected12 = tuple(a + b for a, b in zip(beta1, beta2))
            if self.reflect_tuple(beta1, 2) != expected12:
                raise AssertionError("s_2(beta_1) != beta_1 + beta_2")
            expected21 = tuple(2 * a + b for a, b in zip(beta1, beta2))
            if self.reflect_tuple(beta2, 1) != expected21:
                raise AssertionError("s_1(beta_2) != 2 beta_1 + beta_2")

    # -- ambient coordinates --------------------------------------------------

    def to_ambient(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        n = self.rank
        if self.family == FAMILY_B:
            return tuple(
                coeffs[k] - (coeffs[k + 1] if k + 1 < n else 0) for k in range(n)
            )
        return tuple(
            (coeffs[k] if k < n else 0) - (coeffs[k - 1] if k >= 1 else 0)
            for k in range(n + 1)
        )

    def from_ambient(self, ambient: Sequence[int]) -> tuple[int, ...]:
        n = self.rank
        if self.family == FAMILY_B:
            return tuple(sum(ambient[k:]) for k in range(n))
        return tuple(sum(ambient[: k + 1]) for k in range(n))

    def norm_sq(self, coeffs: Sequence[int]) -> int:
        return sum(v * v for v in self.to_ambient(coeffs))

    def dot(self, a: Sequence[int], b: Sequence[int]) -> int:
        return sum(x * y for x, y in zip(self.to_ambient(a), self.to_ambient(b)))

    def cartan_pairing(self, coeffs: Sequence[int], i: int) -> int:
        """<alpha, beta_i-check> = 2 (alpha, beta_i) / (beta_i, beta_i)."""
        beta = self.simple_tuple(i)
        value = Fraction(2 * self.dot(coeffs, beta), self.norm_sq(beta))
        if value.denominator != 1:
            raise AssertionError("non-integral Cartan pairing")
        return int(value)

    def reflect_tuple(self, coeffs: Sequence[int], i: int) -> tuple[int, ...]:
        pairing = self.cartan_pairing(coeffs, i)
        beta = self.simple_tuple(i)
        return tuple(c - pairing * b for c, b in zip(coeffs, beta))

    def simple_tuple(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range")
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))

    # -- public root lists -----------------------------------------------------

    @property
    def positive_roots(self) -> list[Root]:
        if self._positive_roots is None:
            self._positive_roots = [
                Root(self.family, self.rank, t) for t in self._pos_tuples
            ]
        return list(self._positive_roots)

    def all_roots(self) -> list[Root]:
        pos = self.positive_roots
        return pos + [-r for r in pos]

    def simple(self, i: int) -> Root:
        return Root(self.family, self.rank, self.simple_tuple(i))

    def root(self, coeffs: Sequence[int]) -> Root:
        return Root(self.family, self.rank, tuple(int(c) for c in coeffs))

    def is_root(self, coeffs: Sequence[int]) -> bool:
        return tuple(coeffs) in self.root_tuples

    # -- root strings -----------------------------------------------------------

    def root_string(self, alpha: Root, beta: Root) -> tuple[int, int]:
        """(p, q) with p = max{k : beta - k alpha is a root}, q likewise for +."""
        self._check_independent(alpha, beta)
        p = 0
        while self._shift(beta, alpha, -(p + 1)) in self.root_tuples:
            p += 1
        q = 0
        while self._shift(beta, alpha, q + 1) in self.root_tuples:
            q += 1
        return p, q

    def _shift(self, beta: Root, alpha: Root, k: int) -> tuple[int, ...]:
        return tuple(b + k * a for a, b in zip(alpha.coeffs, beta.coeffs))

    def _check_independent(self, alpha: Root, beta: Root):
        if alpha.coeffs == beta.coeffs or alpha.coeffs == (-beta).coeffs:
            raise ValueError("roots are proportional")

    # -- structure constants ------------------------------------------------------

    @property
    def structure(self) -> "_StructureConstants":
        if self._structure is None:
            self._structure = _StructureConstants(self)
        return self._structure

    def structure_constant(self, alpha: Root, beta: Root) -> int:
        total = tuple(a + b for a, b in zip(alpha.coeffs, beta.coeffs))
        if total not in self.root_tuples:
            raise ValueError(f"{alpha} + {beta} is not a root")
        return self.structure.n_table[(alpha.coeffs, beta.coeffs)]

    def coroot_coords(self, alpha: Root) -> tuple[int, ...]:
        return self.structure.coroot_coords[alpha.coeffs]

    def commutator_terms(self, alpha: Root, beta: Root) -> list[CommutatorTerm]:
        """Terms of [u_alpha(x); u_beta(y)] = prod u_{i beta + j alpha}(C_ij (-y)^i x^j).

        Pairs (i, j) run over the positive integers with i*beta + j*alpha a
        root, in order of increasing i+j.  The constants are derived from the
        structure constants; in types A and B only (1,1), (1,2) and (2,1)
        can occur.
        """
        self._check_independent(alpha, beta)
        pairs = []
        for i in range(1, 4):
            for j in range(1, 4):
                combo = tuple(
                    i * b + j * a for a, b in zip(alpha.coeffs, beta.coeffs)
                )
                if combo in self.root_tuples:
                    pairs.append((i, j))
        pairs.sort(key=lambda ij: (ij[0] + ij[1], ij))
        supported = {(), ((1, 1),), ((1, 1), (1, 2)), ((1, 1), (2, 1))}
        if tuple(pairs) not in supported:
            raise AssertionError(f"unexpected commutator support {pairs}")
        if not pairs:
            return []
        n = self.structure_constant
        ab = self.root(tuple(a + b for a, b in zip(alpha.coeffs, beta.coeffs)))
        constants = {(1, 1): Fraction(-n(alpha, beta))}
        if (1, 2) in pairs:
            constants[(1, 2)] = Fraction(-n(alpha, beta) * n(alpha, ab), 2)
        if (2, 1) in pairs:
            constants[(2, 1)] = Fraction(n(alpha, beta) * n(beta, ab), 2)
        out = []
        for i, j in pairs:
            combo = self.root(tuple(i * b + j * a for a, b in zip(alpha.coeffs, beta.coeffs)))
            c = constants[(i, j)]
            if c.denominator != 1:
                raise AssertionError(f"non-integral commutator constant for {(i, j)}")
            out.append(CommutatorTerm(i, j, combo, int(c)))
        return out


class _StructureConstants:
    """Chevalley constants for one root system, extraspecial pairs positive."""

    def __init__(self, system: RootSystem):
        self.system = system
        # Carter's total order on the positive roots (height, then lex) is the
        # order in which the system generated them.
        self.order = {t: k for k, t in enumerate(system._pos_tuples)}
        self.extraspecial = self._extraspecial_pairs()
        vectors = self._basis_matrices()
        raw, coroots = self._brackets(vectors)
        eps = self._normalizing_signs(raw)
        self.n_table = {
            (a, b): eps[a] * eps[b] * eps[_tadd(a, b)] * c for (a, b), c in raw.items()
        }
        self.coroot_coords = coroots
        self._validate()

    # The defining matrices.  Type A: sl(n+1) with e_{pos->neg} elementary.
    # Type B: so(2n+1) for the antidiagonal form, conjugated so that the short
    # root vectors are integral (2 E_{i,mid} - E_{mid,bar i} and its mate).
    def _basis_matrices(self) -> dict[tuple[int, ...], dict]:
        system = self.system
        n = system.rank
        out: dict[tuple[int, ...], dict] = {}
        if system.family == FAMILY_A:
            for t in system.root_tuples:
                ambient = system.to_ambient(t)
                a = ambient.index(1)
                b = ambient.index(-1)
                out[t] = {(a, b): 1}
            return out
        mid = n
        bar = lambda i: 2 * n + 1 - i  # 0-based mate of 1-based index i
        for t in system.root_tuples:
            ambient = system.to_ambient(t)
            support = [(k + 1, v) for k, v in enumerate(ambient) if v]
            if len(support) == 1:
                (i, v) = support[0]
                if v == 1:
                    out[t] = {(i - 1, mid): 2, (mid, bar(i)): -1}
                else:
                    out[t] = {(mid, i - 1): 1, (bar(i), mid): -2}
            else:
                (i, vi), (j, vj) = support
                if vi == 1 and vj == -1:
                    out[t] = {(i - 1, j - 1): 1, (bar(j), bar(i)): -1}
                elif vi == -1 and vj == 1:
                    out[t] = {(j - 1, i - 1): 1, (bar(i), bar(j)): -1}
                elif vi == 1 and vj == 1:
                    out[t] = {(i - 1, bar(j)): 1, (j - 1, bar(i)): -1}
                else:
                    out[t] = {(bar(j), i - 1): 1, (bar(i), j - 1): -1}
        return out

    def _brackets(self, vectors):
        system = self.system
        raw: dict[tuple, int] = {}
        coroots: dict[tuple, tuple[int, ...]] = {}
        simple_coroot_mats = [
            _sbracket(vectors[system.simple_tuple(i)], vectors[tuple(-c for c in system.simple_tuple(i))])
            for i in range(1, system.rank + 1)
        ]
        for a in system.root_tuples:
            for b in system.root_tuples:
                if a == b:
                    continue
                br = _sbracket(vectors[a], vectors[b])
                total = _tadd(a, b)
                if total in system.root_tuples:
                    target = vectors[total]
                    key = next(iter(target))
                    c, rem = divmod(br[key], target[key])
                    if rem or br != _sscale(target, c):
                        raise AssertionError(f"bracket [{a},{b}] not a multiple of e_{total}")
                    raw[(a, b)] = c
                elif all(v == 0 for v in total):
                    coroots[a] = self._coroot(a, br, simple_coroot_mats)
                elif br:
                    raise AssertionError(f"bracket [{a},{b}] should vanish")
        return raw, coroots

    def _coroot(self, alpha, bracket, simple_coroot_mats) -> tuple[int, ...]:
        """Coordinates of alpha-check over the simple coroots, from the closed
        form alpha-check = sum_i a_i |beta_i|^2 / |alpha|^2 beta_i-check, and
        the full realized bracket [e_alpha, e_-alpha] checked against them."""
        system = self.system
        norm = system.norm_sq(alpha)
        coords = []
        for i, a in enumerate(alpha, start=1):
            c, rem = divmod(a * system.norm_sq(system.simple_tuple(i)), norm)
            if rem:
                raise AssertionError(f"non-integral coroot coordinates for {alpha}")
            coords.append(c)
        expected: dict = {}
        for c, h in zip(coords, simple_coroot_mats):
            for key, val in h.items():
                expected[key] = expected.get(key, 0) + c * val
        if bracket != {k: v for k, v in expected.items() if v}:
            raise AssertionError(f"[e_{alpha}, e_-{alpha}] is not the coroot {coords}")
        return tuple(coords)

    def _extraspecial_pairs(self) -> dict[tuple, tuple[tuple, tuple]]:
        order = self.order
        out = {}
        for total in self.system._pos_tuples:
            candidates = []
            for r in self.system._pos_tuples:
                s = tuple(t - x for t, x in zip(total, r))
                if s in order and order[r] < order[s]:
                    candidates.append((order[r], r, s))
            if candidates:
                _, r, s = min(candidates)
                out[total] = (r, s)
        return out

    def _normalizing_signs(self, raw) -> dict[tuple, int]:
        eps: dict[tuple, int] = {}
        for total in self.system._pos_tuples:
            neg = tuple(-c for c in total)
            if total not in self.extraspecial:
                eps[total] = eps[neg] = 1
                continue
            r, s = self.extraspecial[total]
            c = raw[(r, s)]
            sign = eps[r] * eps[s] * (1 if c > 0 else -1)
            eps[total] = eps[neg] = sign
        return eps

    def _validate(self):
        system = self.system
        for (a, b), c in self.n_table.items():
            if self.n_table[(b, a)] != -c:
                raise AssertionError("antisymmetry failure in structure constants")
            p, _ = system.root_string(system.root(a), system.root(b))
            if abs(c) != p + 1:
                raise AssertionError(f"|N{(a, b)}| = {abs(c)} != p+1 = {p + 1}")
        for total, (r, s) in self.extraspecial.items():
            if self.n_table[(r, s)] <= 0:
                raise AssertionError(f"extraspecial pair {(r, s)} got a negative sign")


def _tadd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


_SYSTEMS: dict[tuple[str, int], RootSystem] = {}


def root_system(family: str, rank: int) -> RootSystem:
    key = (family, rank)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = RootSystem(family, rank)
    return _SYSTEMS[key]


# -- module-level operation surface -------------------------------------------


def positive_roots(ctx) -> list[Root]:
    """Positive roots of the context's root system, by height then lex."""
    return root_system(ctx.family, ctx.rank).positive_roots


def is_root(ctx, coeffs: Sequence[int]) -> bool:
    return root_system(ctx.family, ctx.rank).is_root(tuple(coeffs))


def root_string(alpha: Root, beta: Root) -> tuple[int, int]:
    return root_system(alpha.family, alpha.rank).root_string(alpha, beta)


def structure_constant(alpha: Root, beta: Root) -> int:
    return root_system(alpha.family, alpha.rank).structure_constant(alpha, beta)


def commutator_terms(alpha: Root, beta: Root) -> list[CommutatorTerm]:
    return root_system(alpha.family, alpha.rank).commutator_terms(alpha, beta)


def parse_root(ctx, text: str) -> Root:
    coeffs = tuple(int(part) for part in text.split(","))
    return root_system(ctx.family, ctx.rank).root(coeffs)
