"""Symbolic calculus in the unipotent radical spanned by the negative roots.

A :class:`UnipotentWord` is an ordered product of one-parameter factors
``u_alpha(c)`` with ``alpha`` a negative root and ``c`` an exact Laurent
polynomial.  :func:`collect` rewrites such a product into the canonical form
with one factor per root, in the order of ``system.roots`` (depth, then lex:
Carter's order on the opposite positive roots), using the Chevalley
commutator formula

    u_alpha(x) u_beta(y) = [u_alpha(x); u_beta(y)] u_beta(y) u_alpha(x),
    [u_alpha(x); u_beta(y)] = prod u_{i beta + j alpha}(C_ij (-y)^i x^j).

Collection runs from the left, and the output list is canonical after
every factor.  A new factor is appended on the right and moves left past
every factor of larger index; each swap leaves the commutator factors, which
are strictly deeper than both, on its left, so it passes them too.  It then
merges into an equal-root factor, and the factors it passed are inserted
again in order.  Each swap trades one factor for at most two strictly deeper
ones, so by descending index each insertion ends.

Everything symbolic is double-checked against a numeric oracle: the exact
adjoint representation built from the structure-constant table.  Each
``ad e_alpha`` is nilpotent, its divided powers ``(ad e_alpha)^k / k!`` are
integer matrices (this integrality is asserted, it is the Chevalley lattice
property), so ``u_alpha(c)`` acts by a finite integral sum and whole words
can be evaluated exactly over Q or modulo a prime.  Each root keeps its
divided powers once, as the list [D_1, D_2, ...] of sparse matrices of
:mod:`deodhar.linalg`.  ``evaluate_adjoint`` holds the product in the same
form and applies the factors from the right end of the word, each a left
multiplication by u_alpha(c) = I + N(c) that rebuilds only the rows of D_1,
reduced modulo the prime at every factor; it exports row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping, NamedTuple, Sequence

from .cells import CLOSURE_OBSTRUCTION, catalog, cell
from .laurent import LaurentPoly, Monomial
from .linalg import Matrix, add_row_multiples, identity, mat_mul
from .roots import Root, root_system


# Most work units one collect() spends: one per swap plus the monomial products
# of its commutator factors, counted before they are formed (C (-y)^i x^j, b
# terms in y and a in x, counts b^i a^j).  The n = 16 witness spends 4,164
# (3,820 swaps), a bench oracle word at most 63.  A B_2 word of alternating
# symbolic factors stops after 0.3-0.45 s, at about 20 us a product; random
# integer B_16 words after 0.06-0.07 s, at 3 us a swap, where products alone
# let a 400-factor one run 1.9 s (2-vCPU Xeon, Python 3.11).
COLLECT_BOUND = 20_000


class VerificationError(Exception):
    """A machine-checked claim failed; carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class LimitError(ValueError):
    """The requested limit does not exist (a coefficient is unbounded)."""


class Factor(NamedTuple):
    root: Root
    coeff: LaurentPoly

    def __str__(self) -> str:
        return f"u[{self.root}]({self.coeff})"


class UnipotentWord:
    """Ordered product of negative-root factors; zero factors are dropped.
    Immutable; two words are equal when their factors are."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Factor, ...] = ()):
        kept = []
        for f in factors:
            if f.coeff.is_zero():
                continue
            if not f.root.is_negative:
                raise ValueError(f"factor root {f.root} is not negative")
            kept.append(f)
        if len({f.root.system for f in kept}) > 1:
            raise ValueError("factors from different root systems")
        object.__setattr__(self, "factors", tuple(kept))

    def __setattr__(self, name, *value):
        raise AttributeError("UnipotentWord is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"UnipotentWord(factors={self.factors!r})"

    def __len__(self) -> int:
        return len(self.factors)

    def support(self) -> set[Root]:
        return {f.root for f in self.factors}

    def coefficient(self, root: Root) -> LaurentPoly:
        total = LaurentPoly.zero()
        for f in self.factors:
            if f.root == root:
                total = total + f.coeff
        return total

    def __str__(self) -> str:
        return " ".join(str(f) for f in self.factors) if self.factors else "1"

    def to_obj(self) -> list[dict]:
        return [
            {"root": list(f.root.coeffs), "coeff": f.coeff.to_obj()}
            for f in self.factors
        ]

    @staticmethod
    def from_obj(ctx, obj: Iterable[dict]) -> "UnipotentWord":
        system = ctx.system
        factors = []
        try:
            for item in obj:
                coeffs = item["root"]
                if any(type(c) is not int for c in coeffs):
                    raise ValueError(f"root {coeffs!r} has a non-integer coefficient")
                factors.append(Factor(system.root(coeffs), LaurentPoly.from_obj(item["coeff"])))
        except (KeyError, TypeError):
            raise ValueError('each factor needs a "root" list and a "coeff"') from None
        return UnipotentWord(tuple(factors))


def word_from_pairs(pairs: Iterable[tuple[Root, LaurentPoly]]) -> UnipotentWord:
    return UnipotentWord(tuple(Factor(r, c) for r, c in pairs))


def _append(out: list[Factor], f: Factor) -> None:
    """Append ``f`` to ``out``, merged into the last factor if that has the
    same root; a zero coefficient leaves no factor."""
    if out and out[-1].root is f.root:
        f = Factor(f.root, out.pop().coeff + f.coeff)
    if not f.coeff.is_zero():
        out.append(f)


def collect(word: UnipotentWord) -> UnipotentWord:
    """Canonical form: factors in ``system.roots`` order, one per root, same
    group element (the adjoint oracle re-checks this in the tests).
    ``ValueError`` past ``COLLECT_BOUND`` swaps and monomial products.

    The commutator term of two A_2 factors shows in the output:

    >>> A2 = root_system("A", 2)
    >>> x, y = LaurentPoly.variable("x"), LaurentPoly.variable("y")
    >>> print(collect(word_from_pairs([(A2.root((-1, 0)), x), (A2.root((0, -1)), y)])))
    u[0,-1](y) u[-1,0](x) u[-1,-1](x*y)
    """
    out: list[Factor] = []
    todo = list(reversed(word.factors))  # a stack: the next factor on top
    budget = COLLECT_BOUND
    while todo:
        mine = todo.pop()
        y = mine.coeff
        passed: list[Factor] = []
        while out and out[-1].root.index > mine.root.index:
            left = out.pop()
            x = left.coeff
            terms = left.root.system.commutator_terms(left.root, mine.root)
            budget -= 1
            for term in terms:
                budget -= len(y) ** term.i * len(x) ** term.j
            if budget < 0:
                raise ValueError(
                    f"collection takes more than {COLLECT_BOUND} swaps and monomial products"
                )
            for term in terms:
                coeff = ((-y) ** term.i) * (x ** term.j) * term.constant
                if not coeff.is_zero():
                    out.append(Factor(term.root, coeff))
            passed.append(left)
        _append(out, mine)
        todo += passed  # the leftmost passed factor is inserted first
    return UnipotentWord(tuple(out))


def is_canonical(word: UnipotentWord) -> bool:
    indices = [f.root.index for f in word.factors]
    return all(a < b for a, b in zip(indices, indices[1:]))


def limit_at_infinity(word: UnipotentWord, var: str) -> UnipotentWord:
    """Send ``var`` to infinity in a canonical-form word.

    Every coefficient must have only nonpositive exponents of ``var``; the
    strictly negative parts vanish in the limit.  A positive exponent means
    the coefficient is unbounded and the limit does not exist.
    """
    if not is_canonical(word):
        raise ValueError("limit requires a canonical-form word")
    kept = []
    for f in word.factors:
        if f.coeff.max_exponent(var) > 0:
            raise LimitError(
                f"coefficient {f.coeff} of {f.root} grows with {var}"
            )
        limit_coeff = f.coeff.terms_with_exponent(var, 0)
        if not limit_coeff.is_zero():
            kept.append(Factor(f.root, limit_coeff))
    return UnipotentWord(tuple(kept))


# -- exact adjoint representation ---------------------------------------------


class AdjointRep:
    """The adjoint representation on the Chevalley basis: h_1..h_n, then the
    root vectors in the order of ``system.roots``, so e_r is basis vector
    n + r.index.  Each root keeps its divided powers once, as the list [D_1,
    D_2, ...]; ``evaluate`` exports row tuples."""

    MAX_NILPOTENCY = 5

    def __init__(self, ctx):
        system = ctx.system
        self.ctx = ctx
        self.system = system
        self.dim = ctx.rank + len(system.roots)
        self._divided = [self._build_divided(r) for r in system.roots]

    def _build_ad(self, alpha: Root) -> Matrix:
        system = self.system
        n = self.ctx.rank
        # [e_alpha, h_j] = -<alpha, beta_j-check> e_alpha is nonzero for some j
        pairings = ((j, system.cartan_pairing(alpha, j + 1)) for j in range(n))
        out: Matrix = {n + alpha.index: {j: -c for j, c in pairings if c}}
        for j, c in enumerate(system.coroot_coords(alpha)):
            if c:
                out[j] = {n + (-alpha).index: c}
        for j, (total, c) in system.structure.sums[alpha.index].items():
            out[n + total.index] = {n + j: c}
        return out

    def _build_divided(self, root: Root) -> list[Matrix]:
        """[D_1, D_2, ...], D_k = ad^k/k! = D_{k-1} ad / k, up to the last
        nonzero one: every nonzero row of D_k is a row of D_1."""
        divided = [self._build_ad(root)]
        while current := mat_mul(divided[-1], divided[0]):
            if len(divided) == self.MAX_NILPOTENCY:
                raise AssertionError(f"ad e_{root} is not nilpotent of index <= 5")
            k = len(divided) + 1
            for row in current.values():
                for j, v in row.items():
                    row[j], r = divmod(v, k)
                    if r:
                        raise AssertionError("divided power is not integral")
            divided.append(current)
        return divided

    def divided_powers(self, root: Root) -> list[Matrix]:
        """[I, ad, ad^2/2!, ...] until zero, integers: the stored D_k in a new list."""
        return [identity(self.dim), *self._divided[self._index(root)]]

    def _index(self, root: Root) -> int:
        if root.system is not self.system:
            raise ValueError(f"root {root} is not in {self.ctx}")
        return root.index

    def evaluate(
        self,
        word: UnipotentWord,
        assignment: Mapping[str, Fraction] | None = None,
        prime: int | None = None,
    ) -> tuple[tuple, ...]:
        """Matrix of ``word`` at ``assignment``: ``int`` entries when every
        coefficient evaluates to an integer, residues when ``prime`` is given."""
        assignment = assignment or {}
        m = identity(self.dim)
        for f in reversed(word.factors):
            divided = self._divided[self._index(f.root)]
            value = f.coeff.evaluate(assignment)
            if prime is not None:
                value = _mod_fraction(value, prime)
            if value:  # else the factor is the identity
                values = [value ** k for k in range(1, len(divided) + 1)]
                m = add_row_multiples(m, divided, values, prime)
        out = []
        for i in range(self.dim):
            dense = [0] * self.dim
            for j, v in m[i].items():
                dense[j] = v
            out.append(tuple(dense))
        return tuple(out)


def _mod_fraction(value: Fraction | int, prime: int) -> int:
    den = value.denominator % prime
    if den == 0:
        raise ValueError(f"denominator divisible by {prime}")
    return value.numerator % prime * pow(den, -1, prime) % prime


@cache
def adjoint_rep(ctx, /) -> AdjointRep:
    """The one adjoint representation of the interned context ``ctx``."""
    return AdjointRep(ctx)


def evaluate_adjoint(
    ctx,
    word: UnipotentWord,
    assignment: Mapping[str, Fraction] | None = None,
    prime: int | None = None,
) -> tuple[tuple, ...]:
    """Exact matrix of a word in the adjoint representation, as row tuples."""
    return adjoint_rep(ctx).evaluate(word, assignment, prime)


# -- the closure witness ------------------------------------------------------


class WitnessCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


class ClosureWitnessReport(NamedTuple):
    """Outcome of the symbolic closure-intersection verification at rank n."""

    n: int
    psi: tuple[Root, ...]
    checks: tuple[WitnessCheck, ...]
    signs: tuple[tuple[str, str, int], ...]  # (word tag, root, realized sign)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"closure witness, rank n={self.n}"]
        out.append("psi = {" + "; ".join(str(r) for r in self.psi) + "}")
        for c in self.checks:
            out.append(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        for tag, root, sign in self.signs:
            out.append(f"sign {tag} u[{root}]: {'+' if sign > 0 else '-'}")
        return out


def _variable(name: str, k: int) -> LaurentPoly:
    return LaurentPoly.variable(f"{name}{k}")


def witness_psi(n: int) -> tuple[Root, ...]:
    system = root_system("B", n)
    doubled = tuple(-2 if k < n - 1 else -1 for k in range(n))
    chain = lambda k: tuple(-1 if k - 1 <= j <= n - 1 else 0 for j in range(n))
    roots = [system.root(doubled)]
    roots += [system.root(chain(k)) for k in range(2, n)]
    roots.append(-system.simple(n))
    return tuple(roots)


def build_closure_witness_words(n: int):
    """The two symbolic cell representatives whose collected forms exhibit an
    n-dimensional family inside both the deeper cell and the closure of the
    shallower one.  Returns (u_y, u_z, psi)."""
    if n < 3:
        raise ValueError("the witness construction needs rank n >= 3")
    entry = catalog(CLOSURE_OBSTRUCTION, n)
    gamma, delta = entry.first, entry.second
    phi_delta = cell(delta).phi
    free_pattern = [e.free for e in phi_delta]
    expected_pattern = [True] * (2 * n - 2) + [False] * (n - 1)
    if free_pattern != expected_pattern:
        raise VerificationError(
            "coordinate pairing mismatch: free pattern of the deeper cell is "
            f"{free_pattern}, expected {expected_pattern}"
        )
    y_values = (
        [_variable("y", k) for k in range(1, n + 1)]
        + [-_variable("y", k) for k in range(n - 1, 1, -1)]
        + [LaurentPoly.zero()] * (n - 1)
    )
    u_y = word_from_pairs(
        (e.root, v) for e, v in zip(phi_delta, y_values) if not v.is_zero()
    )
    phi_gamma = cell(gamma).phi
    if len(phi_gamma) != 2 * n:
        raise VerificationError(
            f"coordinate pairing mismatch: expected 2n coordinates, got {len(phi_gamma)}"
        )
    t = LaurentPoly.variable("t")
    t2 = LaurentPoly.variable("t", 2)
    z_values = (
        [_variable("z", n), _variable("z", 1) * t]
        + [_variable("z", k) * t2 for k in range(2, n)]
        + [LaurentPoly.variable("t", -2), -_variable("z", 1) * t]
        + [-_variable("z", k) * t2 for k in range(2, n)]
    )
    u_z = word_from_pairs(zip((e.root for e in phi_gamma), z_values))
    return u_y, u_z, witness_psi(n)


def _expected_witness_monomials(n: int, psi: Sequence[Root]):
    y_mono: dict[Root, Monomial] = {}
    z_mono: dict[Root, Monomial] = {}
    doubled, middles, last = psi[0], psi[1:-1], psi[-1]
    y_mono[doubled] = Monomial.from_mapping({f"y{k}": 1 for k in range(2, n + 1)})
    z_mono[doubled] = Monomial.of(z1=2)
    for k, root in enumerate(middles, start=2):
        y_mono[root] = Monomial.from_mapping({f"y{j}": 1 for j in range(k + 1, n + 1)})
        z_mono[root] = Monomial.of(**{f"z{k}": 1})
    y_mono[last] = Monomial.of(y1=1)
    z_mono[last] = Monomial.of(**{f"z{n}": 1})
    return y_mono, z_mono


def _check_support_and_monomials(word, expected, tag, checks, signs):
    support_ok = word.support() == set(expected)
    checks.append(
        WitnessCheck(
            f"{tag} support",
            support_ok,
            "supported exactly on psi"
            if support_ok
            else f"support {{{'; '.join(sorted(str(r) for r in word.support()))}}}",
        )
    )
    if not support_ok:
        return
    for root, mono in expected.items():
        coeff = word.coefficient(root)
        ok = False
        detail = str(coeff)
        try:
            value, actual = coeff.single_term()
            ok = actual == mono and abs(value) == 1
            if ok:
                signs.append((tag, str(root), 1 if value > 0 else -1))
                detail = f"{coeff} matches {mono} up to sign"
        except ValueError:
            pass
        checks.append(WitnessCheck(f"{tag} monomial at {root}", ok, detail))


def verify_closure_witness(n: int) -> ClosureWitnessReport:
    """Machine-check the three claims behind the closure intersection:

    (a) the collected deeper-cell word is supported exactly on psi with the
        monomials (y_1; y_2...y_n; y_3...y_n; ...; y_n) up to sign;
    (b) the collected shallower-cell word admits a limit at t = infinity,
        supported exactly on psi with monomials (z_n; z_1^2; z_2; ...; z_{n-1})
        up to sign;
    (c) no sum of two distinct psi roots is a root, so the psi factors commute.

    Raises :class:`VerificationError` if any assertion fails.
    """
    u_y, u_z, psi = build_closure_witness_words(n)
    checks: list[WitnessCheck] = []
    signs: list[tuple[str, str, int]] = []
    y_expected, z_expected = _expected_witness_monomials(n, psi)

    collected_y = collect(u_y)
    _check_support_and_monomials(collected_y, y_expected, "u_y", checks, signs)

    collected_z = collect(u_z)
    try:
        limit_word = limit_at_infinity(collected_z, "t")
        checks.append(WitnessCheck("u_z limit", True, "limit at t=infinity exists"))
        _check_support_and_monomials(limit_word, z_expected, "lim u_z", checks, signs)
    except LimitError as err:
        checks.append(WitnessCheck("u_z limit", False, str(err)))

    commuting = all(
        a.try_add(b) is None for i, a in enumerate(psi) for b in psi[i + 1 :]
    )
    checks.append(
        WitnessCheck(
            "psi commutes",
            commuting,
            "the sum of two elements of psi is never a root"
            if commuting
            else "some pair of psi roots sums to a root",
        )
    )

    report = ClosureWitnessReport(
        n=n,
        psi=psi,
        checks=tuple(checks),
        signs=tuple(signs),
    )
    if not report.passed:
        failing = [c.name for c in checks if not c.passed]
        raise VerificationError(f"witness verification failed: {failing}", report)
    return report
