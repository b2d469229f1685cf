"""Root systems of types A_n and B_n with Chevalley structure constants.

Each :class:`RootSystem` builds its :class:`Root` objects once; a root is an
integer coefficient vector over the simple basis ``beta_1 .. beta_n``, its
ambient vector and an index into the system's table, and every root of the
package is one of them.  The type B realization follows the labeling with
the double bond between the first two nodes: ``beta_1`` is the short simple
root,

    beta_1 = e_1,   beta_i = e_i - e_{i-1}  (i >= 2),

so the positive roots are exactly the vectors ``e_j`` and ``e_j +- e_k``
(k < j), written in the simple basis as

    beta_i + ... + beta_j                         (1 <= i <= j <= n)
    2 beta_1 + ... + 2 beta_i + beta_{i+1} + ... + beta_j   (1 <= i < j <= n).

For type A_n we take ``beta_i = e_i - e_{i+1}`` inside R^{n+1}, which matches
the upper-triangular Borel of SL_{n+1} used by the matrix cross-checks.

The module sits above :mod:`deodhar.weyl`, whose check validates a system,
and owns the Weyl group's action on roots, ``simple_image_table``.

Each root also carries one integer ``code``, its coefficients as signed
base-16 digits; a root's coefficients lie in [-2, 2], so the code of a sum of
two roots is the sum of their codes, and a root sum is one dict lookup.  The
check that the roots are closed under the simple reflections runs on codes
too: t_i(r) is the lookup of r.code - <r, beta_i-check> beta_i.code, with
the pairing read from one table of <r, beta_i-check> for every root r and
simple root beta_i, computed once and read by ``cartan_pairing`` as well.

Structure constants N(alpha, beta), defined by [e_alpha, e_beta] =
N(alpha, beta) e_{alpha+beta}, are read off from explicit faithful matrix
realizations (sl(n+1), and so(2n+1) with the short root vectors rescaled so
all brackets stay integral), held by rows as sparse matrices of
:mod:`deodhar.linalg`, and then sign-normalized so that every extraspecial
pair gets a positive constant, which is Carter's convention.  The brackets
come from the sparse join :func:`deodhar.linalg.bracket_rows` over the root
vectors listed by index, which gives [e_alpha, e_beta] for every later beta
whose vector meets e_alpha; a pair that never meets brackets to zero.  The
simple coroots [e_beta_i, e_-beta_i] are read from the rows of the simple
roots, which come first.  The build runs on root indices and codes, and its
tables stay keyed by root index: each root's later partners whose sum is a
root are found by codes and the constants are collected as index tuples.  It
leaves one table,
``structure.sums[alpha.index][beta.index] = (alpha + beta, N(alpha, beta))``
for every pair whose sum is a root; the structure constants, the commutator
terms and the adjoint representation of :mod:`deodhar.chevalley` all read
it.  ``structure.coroot_coords`` lists the coroots by index, and
``structure.extraspecial`` maps the index of a positive sum to the indices
of its extraspecial pair.
The normalized table is uniquely determined by that convention.  Building it
checks every pair's bracket (a multiple of the sum's vector, the coroot, or
zero) and in the same pass |N| = p+1, with p from the root string (stepped
on codes) rather than the table; then the positive extraspecial pairs.  The
test suite checks Jacobi via the adjoint representation and compares the
table with derivations by root sums.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import accumulate, compress
from typing import NamedTuple, Sequence

from .linalg import bracket_rows, combine
from .weyl import FAMILY_A, FAMILY_B, check_family_rank

# -- roots -------------------------------------------------------------------


class Root:
    """A root of one :class:`RootSystem`: its integer coefficient vector over
    the simple roots, the same vector in ambient coordinates, and its index in
    ``system.roots``.

    Every root is built once, by its system, so equality is identity and the
    hash is the index: sets and dicts of roots iterate in the same order in
    every interpreter.
    """

    __slots__ = ("system", "coeffs", "ambient", "index", "code")

    def __init__(self, system: "RootSystem", coeffs: tuple[int, ...], index: int):
        self.system = system
        self.coeffs = coeffs
        self.ambient = system.to_ambient(coeffs)
        self.index = index
        # the coefficients as signed base-16 digits: a digit of the sum of two
        # roots lies in [-4, 4], so the sum of two codes is the code of the sum
        # of the vectors, and two different vectors never share a code
        self.code = sum(c << 4 * k for k, c in enumerate(coeffs))

    def __hash__(self) -> int:
        return self.index

    def __repr__(self) -> str:
        return f"Root({self.system.family}{self.system.rank}: {self})"

    @property
    def is_positive(self) -> bool:
        return self.index < len(self.system.positive_roots)

    def __neg__(self) -> "Root":
        # the negatives follow the positives in the same order
        roots = self.system.roots
        return roots[self.index - len(roots) // 2]

    def try_add(self, other: "Root") -> "Root | None":
        return self.system._by_code.get(self.code + other.code)

    def serialize(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        return self.serialize()


class CommutatorTerm(NamedTuple):
    """One factor u_{i*beta + j*alpha}(C * (-y)^i x^j) of the commutator formula."""

    i: int
    j: int
    root: Root
    constant: int


class RootSystem:
    """Root data for one (family, rank), built once and shared.

    ``roots`` holds every root once: the positive roots by height, then lex
    (Carter's total order), followed by their negatives in the same order.
    """

    def __init__(self, family: str, rank: int):
        check_family_rank(family, rank)
        self.family = family
        self.rank = rank
        positive = self._generate_positive()
        coeffs = positive + [tuple(-c for c in t) for t in positive]
        self.roots = tuple(Root(self, t, k) for k, t in enumerate(coeffs))
        self.positive_roots = self.roots[: len(positive)]
        self._by_coeffs = {r.coeffs: r for r in self.roots}
        self._by_code = {r.code: r for r in self.roots}
        self._self_test()
        self.simple_image_table = self._simple_images()

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
        # s_2(beta_1) = beta_1 + beta_2.  Both read the table
        # _pairings[r.index][i - 1] = <r, beta_i-check>, from the at most two
        # nonzero ambient entries of beta_i.  A root's digits and the pairing
        # lie in [-2, 2], so the digits of t_i(r) stay in [-4, 4] and the
        # difference of codes is the code of the image.
        simples = [self.simple(i) for i in range(1, self.rank + 1)]
        reflections = [
            (i, [(k, v) for k, v in enumerate(b.ambient) if v], self.norm_sq(b), b.code)
            for i, b in enumerate(simples, start=1)
        ]
        self._pairings = []
        for r in self.roots:
            row = []
            for i, support, norm, step in reflections:
                pairing, rem = divmod(2 * sum(r.ambient[k] * v for k, v in support), norm)
                if rem:
                    raise AssertionError("non-integral Cartan pairing")
                if r.code - pairing * step not in self._by_code:
                    raise AssertionError(f"reflection t_{i} breaks root {r}")
                row.append(pairing)
            self._pairings.append(tuple(row))
        if self.family == FAMILY_B:
            if self._pairings[simples[0].index][1] != -1:
                raise AssertionError("s_2(beta_1) != beta_1 + beta_2")
            if self._pairings[simples[1].index][0] != -2:
                raise AssertionError("s_1(beta_2) != 2 beta_1 + beta_2")

    def _simple_images(self) -> tuple:
        """``simple_image_table[i] = (p, q, grid)``: w(beta_i) is
        ``grid[w.window[p]][w.window[q]]``, as w sends e_k to sign(w(k))
        e_|w(k)| and beta_i is supported on e_{p+1} and e_{q+1} (p = q for
        beta_1 = e_1 of type B).  A grid is indexed by window entries, a
        negative one from the end, and is shared by the beta_i of one shape:
        O(rank^2) roots, looked up by sums of codes, which are linear."""
        sums = [*accumulate(self.simple(i).code for i in range(1, self.rank + 1))]
        if self.family == FAMILY_B:  # units[k]: the code of e_k = beta_1 + ... + beta_k
            units = [0, *sums, *(-u for u in reversed(sums))]
        else:  # the code of e_k - e_1, as e_1 cancels in a root
            units = [0, 0, *(-u for u in sums)]
        get, table, grids = self._by_code.get, [None], {}
        for i in range(1, self.rank + 1):
            (p, c), *rest = [(k, v) for k, v in enumerate(self.simple(i).ambient) if v]
            q, d = rest[0] if rest else (p, 0)
            if (c, d) not in grids:
                grids[c, d] = tuple(tuple([get(c * x + d * y) for y in units]) for x in units)
            table.append((p, q, grids[c, d]))
        return tuple(table)

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

    def norm_sq(self, root: Root) -> int:
        return sum(v * v for v in root.ambient)

    def cartan_pairing(self, root: Root, i: int) -> int:
        """<alpha, beta_i-check> = 2 (alpha, beta_i) / (beta_i, beta_i), read
        from the table of the self-test by the root's index, so a root of
        another system is rejected."""
        if root.system is not self:
            raise ValueError("root does not belong to this system")
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range")
        return self._pairings[root.index][i - 1]

    # -- root lookup -------------------------------------------------------------

    def all_roots(self) -> list[Root]:
        return list(self.roots)

    def simple(self, i: int) -> Root:
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range")
        # the roots of height one come first, lex ascending: beta_n, ..., beta_1
        return self.roots[self.rank - i]

    def root(self, coeffs: Sequence[int]) -> Root:
        try:
            return self._by_coeffs[tuple(coeffs)]
        except KeyError:
            raise ValueError(
                f"{tuple(coeffs)} is not a root of {self.family}_{self.rank}"
            ) from None

    # -- structure constants ------------------------------------------------------

    @cached_property
    def structure(self) -> "_StructureConstants":
        return _StructureConstants(self)

    def commutator_terms(self, alpha: Root, beta: Root) -> list[CommutatorTerm]:
        """Terms of [u_alpha(x); u_beta(y)] = prod u_{i beta + j alpha}(C_ij (-y)^i x^j).

        Pairs (i, j) run over the positive integers with i*beta + j*alpha a
        root, in order of increasing i+j.  The constants are derived from the
        structure constants; in types A and B only (1,1), (1,2) and (2,1)
        can occur.
        """
        if beta is alpha or beta is -alpha:
            raise ValueError("roots are proportional")
        sums = self.structure.sums
        a, b = alpha.index, beta.index
        entry = sums[a].get(b)
        if entry is None:
            return []
        ab, n_ab = entry
        aab, abb = sums[a].get(ab.index), sums[b].get(ab.index)
        heavy = [e[0].index for e in (aab, abb) if e is not None]
        # alpha-strings are unbroken and, in types A and B, hold at most three
        # roots: nothing lies beyond a missing alpha + beta, and otherwise at
        # most one term of weight three and none of weight four can occur
        if len(heavy) > 1 or any(a in sums[r] or b in sums[r] for r in heavy):
            raise AssertionError(f"unexpected commutator support for {alpha}, {beta}")
        out = [CommutatorTerm(1, 1, ab, -n_ab)]
        if aab is not None:
            out.append(_halved(1, 2, aab[0], -n_ab * aab[1]))
        if abb is not None:
            out.append(_halved(2, 1, abb[0], n_ab * abb[1]))
        return out


def _halved(i: int, j: int, root: Root, twice: int) -> CommutatorTerm:
    c, rem = divmod(twice, 2)
    if rem:
        raise AssertionError(f"non-integral commutator constant for {(i, j)}")
    return CommutatorTerm(i, j, root, c)


def _steps(start_code: int, step_code: int, by_code: dict[int, Root]) -> int:
    """How many times the root code ``step_code`` can be added to the root
    code ``start_code`` staying a root.  Each step adds a root's code to a
    root's code, so the digits stay in [-4, 4], as in :meth:`Root.try_add`."""
    k = 0
    while (start_code := start_code + step_code) in by_code:
        k += 1
    return k


class _StructureConstants:
    """Chevalley constants for one root system, extraspecial pairs positive,
    in the one table ``sums`` that the module docstring describes."""

    def __init__(self, system: RootSystem):
        self.system = system
        roots = system.roots
        raw, extraspecial, self.coroot_coords = self._brackets(self._basis_matrices())
        eps = self._normalizing_signs(extraspecial)
        # rows by index: row m gets its entries (k, m), k < m, before its own
        # (m, j), j > m, so every row is in ascending index order
        sums: list[dict[int, tuple[Root, int]]] = [{} for _ in roots]
        for k, j, t, c in raw:
            c *= eps[k] * eps[j] * eps[t]
            total = roots[t]
            sums[k][j] = (total, c)
            sums[j][k] = (total, -c)
        # the signs must make every extraspecial constant positive
        for k, j, _, _ in extraspecial.values():
            if sums[k][j][1] <= 0:
                r, s = roots[k], roots[j]
                raise AssertionError(f"extraspecial pair ({r}; {s}) got a negative sign")
        self.sums = sums
        self.extraspecial = {t: (k, j) for t, (k, j, _, _) in extraspecial.items()}

    # The defining matrices.  Type A: sl(n+1) with e_{pos->neg} elementary.
    # Type B: so(2n+1) for the antidiagonal form, conjugated so that the short
    # root vectors are integral (2 E_{i,mid} - E_{mid,bar i} and its mate).
    def _basis_matrices(self) -> dict[Root, dict]:
        system = self.system
        n = system.rank
        out: dict[Root, dict] = {}
        if system.family == FAMILY_A:
            for r in system.roots:
                a = r.ambient.index(1)
                b = r.ambient.index(-1)
                out[r] = {a: {b: 1}}
            return out
        mid = n
        bar = lambda i: 2 * n + 1 - i  # 0-based mate of 1-based index i
        for r in system.roots:
            support = [(k + 1, v) for k, v in enumerate(r.ambient) if v]
            if len(support) == 1:
                (i, v) = support[0]
                if v == 1:
                    out[r] = {i - 1: {mid: 2}, mid: {bar(i): -1}}
                else:
                    out[r] = {mid: {i - 1: 1}, bar(i): {mid: -2}}
            else:
                (i, vi), (j, vj) = support
                if vi == 1 and vj == -1:
                    out[r] = {i - 1: {j - 1: 1}, bar(j): {bar(i): -1}}
                elif vi == -1 and vj == 1:
                    out[r] = {j - 1: {i - 1: 1}, bar(i): {bar(j): -1}}
                elif vi == 1 and vj == 1:
                    out[r] = {i - 1: {bar(j): 1}, j - 1: {bar(i): -1}}
                else:
                    out[r] = {bar(j): {i - 1: 1}, bar(i): {j - 1: -1}}
        return out

    def _brackets(self, vectors):
        """Raw constants ``(k, j, t, c)`` by index of the pairs a = roots[k]
        before b = roots[j] whose sum roots[t] is a root, with [e_a, e_b] =
        c e_{a+b}; the extraspecial pairs, each sum's first such tuple of two
        positive roots; and the coroots by index.  Every bracket is checked,
        and every constant c against the root string: |c| = p+1."""
        system = self.system
        roots = system.roots
        n, size, half = system.rank, len(roots), len(system.positive_roots)
        vecs = [vectors[r] for r in roots]
        codes = [r.code for r in roots]
        by_code = system._by_code
        simple_norms = [system.norm_sq(system.simple(i)) for i in range(1, n + 1)]
        # [e_beta_i, e_-beta_i] by i, read from the row of beta_i = roots[n - i]:
        # the simple roots come first, so each is read before any coroot needs it
        simple_coroots: list[dict] = [{}] * n
        raw: list[tuple[int, int, int, int]] = []
        extraspecial: dict[int, tuple[int, int, int, int]] = {}
        coroots: list[tuple[int, ...]] = [()] * size
        # the first entry (row, col, value) of each vector, and c e_roots[t]
        firsts = [next((r, j, v) for r, e in m.items() for j, v in e.items()) for m in vecs]
        multiple = cache(
            lambda t, c: {r: {j: c * v for j, v in e.items()} for r, e in vecs[t].items()}
        )
        for k, row in bracket_rows(vecs):
            code = codes[k]
            # the later roots whose sum with a is a root, in one C-level pass
            totals = map(code.__add__, codes[k + 1 :])
            for j in compress(range(k + 1, size), map(by_code.__contains__, totals)):
                t = by_code[code + codes[j]].index
                # a pair that never meets in the join brackets to zero, which
                # is no nonzero multiple of the target
                br = row.get(j, {})
                row0, col0, v0 = firsts[t]
                c, rem = divmod(br.get(row0, {}).get(col0, 0), v0)
                if rem or not c or br != multiple(t, c):
                    raise AssertionError(
                        f"bracket [{roots[k]}; {roots[j]}] not a multiple of e_{roots[t]}"
                    )
                # p of the a-string through b; the signs set later keep |c|
                p = _steps(codes[j], -code, by_code)
                if abs(c) != p + 1:
                    raise AssertionError(
                        f"|N({roots[k]}; {roots[j]})| = {abs(c)} != p+1 = {p + 1}"
                    )
                entry = (k, j, t, c)
                raw.append(entry)
                # pairs come by the index of a, which orders the positive
                # roots first: the first positive pair is the extraspecial one
                if j < half and t not in extraspecial:
                    extraspecial[t] = entry
            if k < half:
                # b = -a follows a only for a positive a
                j = k + half
                realized = row.get(j, {})
                if k < n:
                    simple_coroots[n - 1 - k] = realized
                coords = self._coroot(roots[k], realized, simple_norms, simple_coroots)
                # [e_-a, e_a] = -[e_a, e_-a], so the coroot of -a is negated
                coroots[k], coroots[j] = coords, tuple(-c for c in coords)
            # the join holds only the pairs that meet: of those, every one
            # whose sum is neither a root nor zero must bracket to zero
            vanishing = [
                j
                for j, br in row.items()
                if br and j != k + half and code + codes[j] not in by_code
            ]
            if vanishing:
                raise AssertionError(f"bracket [{roots[k]}; {roots[min(vanishing)]}] should vanish")
        return raw, extraspecial, coroots

    def _coroot(self, alpha: Root, realized, simple_norms, simple_coroots) -> tuple[int, ...]:
        """Coordinates of alpha-check over the simple coroots, from the closed
        form alpha-check = sum_i a_i |beta_i|^2 / |alpha|^2 beta_i-check, and
        the full realized bracket [e_alpha, e_-alpha] checked against them;
        ``simple_norms`` holds |beta_i|^2 and ``simple_coroots`` [e_beta_i,
        e_-beta_i] by i."""
        norm = self.system.norm_sq(alpha)
        coords = []
        for a, simple_norm in zip(alpha.coeffs, simple_norms):
            c, rem = divmod(a * simple_norm, norm)
            if rem:
                raise AssertionError(f"non-integral coroot coordinates for {alpha}")
            coords.append(c)
        if realized != combine(zip(coords, simple_coroots)):
            raise AssertionError(f"[e_{alpha}, e_-{alpha}] is not the coroot {coords}")
        return tuple(coords)

    def _normalizing_signs(self, extraspecial) -> list[int]:
        """eps by index: each positive sum's sign makes its extraspecial
        constant positive, and -r shares the sign of r."""
        half = len(self.system.positive_roots)
        eps = [1] * (2 * half)
        # an extraspecial pair precedes its sum in the height order, so its
        # signs are set first
        for t in range(half):
            entry = extraspecial.get(t)
            if entry is not None:
                k, j, _, c = entry
                eps[t] = eps[t + half] = eps[k] * eps[j] * (1 if c > 0 else -1)
        return eps


@cache
def root_system(family: str, rank: int, /) -> RootSystem:
    """The one shared system of (family, rank).  The arguments are positional
    only, so that every call for a system shares one cache key."""
    return RootSystem(family, rank)
