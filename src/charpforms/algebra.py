"""Truncated divided power algebras over F_p.

An algebra is determined by a prime p and heights (m_1, ..., m_n): it has a
monomial basis x_1^(a_1)...x_n^(a_n) with 0 <= a_i < p^{m_i}, multiplication
x^(r) x^(s) = C(r+s, r) x^(r+s), and dimension p^{m_1+...+m_n}.  Elements are
sparse dicts {exponent tuple: nonzero coefficient}.

Divided powers f^(r) are computed in the free algebra (no exponent caps) and
only then tested against the truncation; a result with an out-of-range
exponent carrying a nonzero coefficient raises OutOfAlgebraError.  Plain
products, by contrast, truncate exactly: a product exponent that overflows
p^{m_i} forces a base-p carry past position m_i - 1, so its binomial
coefficient vanishes mod p.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, lt

import numpy as np

from .gfp import check_prime, ensure, inv_scalar

Mono = tuple  # exponent vector


@dataclass(frozen=True)
class FlagSpec:
    """Prime and heights; fixes the algebra and everything built on it."""
    p: int
    heights: tuple

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "heights", tuple(int(m) for m in self.heights))
        if len(self.heights) < 1 or any(m < 1 for m in self.heights):
            raise ValueError("heights must be a nonempty tuple of integers >= 1")

    @property
    def n(self) -> int:
        return len(self.heights)

    @cached_property
    def caps(self) -> tuple:
        return tuple(self.p ** m for m in self.heights)

    @property
    def dim(self) -> int:
        return self.p ** sum(self.heights)

    @property
    def top_degree(self) -> int:
        """Largest total degree of a basis monomial; m^(k) = 0 beyond it."""
        return sum(self.p ** m - 1 for m in self.heights)

    def zero_mono(self) -> Mono:
        return (0,) * self.n

    def monomials(self):
        """All basis monomials, lexicographic in the exponent vector."""
        def rec(i):
            if i < 0:
                yield ()
                return
            for head in rec(i - 1):
                for a in range(self.caps[i]):
                    yield head + (a,)
        return rec(self.n - 1)

    def heights_multiset(self) -> tuple:
        return tuple(sorted(self.heights))


class OutOfAlgebraError(Exception):
    """A divided power left the truncated algebra."""

    def __init__(self, mono=None, msg=None):
        self.mono = mono
        super().__init__(msg or f"divided power escapes the algebra at {mono}")


def binom_lucas(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem."""
    return _binom(n, k, p) if 0 <= k <= n else 0


@lru_cache(maxsize=1 << 16)
def mono_dp_coeff(alpha: Mono, r: int, p: int) -> int:
    """Coefficient of (x^(alpha))^(r) = c * x^(r*alpha), exactly mod p.

    Over Q, (x^(alpha))^(r) = (x^(alpha))^r / r! and (x^(a))^r =
    (r*a)!/(a!)^r x^(r*a), so c = prod_i (r*a_i)! / (r! * prod_i (a_i!)^r).
    One coordinate gives (r*a)!/(r! (a!)^r) = prod_{j=1..r} C(j*a - 1, a - 1)
    (choose the block of the smallest unplaced element, j = r..1), an
    integer.  So with k coordinates a_i != 0, c = (r!)^{k-1} *
    prod_{a_i != 0} prod_{j=1..r} C(j*a_i - 1, a_i - 1), every binomial from
    the one table `_binom`.  For alpha = 0, c = 1/r!, which exists mod p
    only for r < p.
    """
    nonzero = [a for a in alpha if a]
    fact = math.factorial(r) % p
    if not nonzero:
        ensure(fact != 0, "divided power coefficient has negative valuation")
        return inv_scalar(fact, p)
    c = pow(fact, len(nonzero) - 1, p)
    for a in nonzero:
        for j in range(1, r + 1):
            c = c * _binom(j * a - 1, a - 1, p) % p
    return c


def _digits(r: int, p: int) -> list[int]:
    out = []
    while r:
        out.append(r % p)
        r //= p
    return out


@lru_cache(maxsize=None)
def _binom_rows(p: int) -> tuple:
    """(R, B): B is the largest power of p up to 256 and R[s][a] = C(s, a)
    mod p for a <= s < B, one bytes row per s built by Pascal's rule.  Every
    binomial of the products comes from here, and its size depends on p
    only (at most 256 rows)."""
    B = p
    while B * p <= 256:
        B *= p
    rows = [b"\x01"]
    for _ in range(B - 1):
        prev = rows[-1]
        rows.append(bytes([1, *((x + y) % p for x, y in zip(prev, prev[1:])), 1]))
    return tuple(rows), B


def _binom(s: int, a: int, p: int) -> int:
    """C(s, a) mod p for 0 <= a <= s, by Lucas' theorem in base B."""
    rows, B = _binom_rows(p)
    c = 1
    while s >= B:
        s, sd = divmod(s, B)
        a, ad = divmod(a, B)
        if ad > sd:
            return 0
        c = c * rows[sd][ad] % p
    return c * rows[s][a] % p


@lru_cache(maxsize=None)
def _binom_table(cap: int, p: int) -> np.ndarray:
    """T[a, s] = C(s, a) mod p for a < cap and s < 2*cap - 1, zero from
    s = cap on: the coefficient of x^(s) in x^(a) * x^(s - a) for a
    coordinate whose exponents stop below cap = p^m."""
    T = np.zeros((cap, 2 * cap - 1), dtype=np.int64)
    for a in range(cap):
        T[a, a:cap] = [_binom(s, a, p) for s in range(a, cap)]
    T.flags.writeable = False       # shared by every caller through the cache
    return T


def multiplication_matrix(f: "AlgebraElement") -> np.ndarray:
    """The matrix of g -> f * g on O(F), in the basis `spec.monomials()`.

    Column j holds the coordinates of f * x^(b) for the j-th monomial b.  A
    term c x^(a) of f sends x^(b) to c * prod_i C(a_i + b_i, a_i) x^(a + b),
    whose index is that of x^(b) plus that of x^(a); the binomials come from
    one cached table per cap p^m, and distinct terms of f fill distinct
    entries.
    """
    spec = f.spec
    p = spec.p
    dim = spec.dim
    M = np.zeros((dim, dim), dtype=np.int64)
    if not f.terms:
        return M
    exps = np.indices(spec.caps).reshape(spec.n, dim)    # exps[i, j] = b_i
    strides = np.cumprod((1,) + spec.caps[:0:-1])[::-1]
    shifts = np.array(list(f.terms), dtype=np.int64)     # one row a per term
    coeff = np.array(list(f.terms.values()), dtype=np.int64)[:, None]
    for i, cap in enumerate(spec.caps):
        a = shifts[:, i:i + 1]
        coeff = coeff * _binom_table(cap, p)[a, exps[i] + a] % p
    term, col = np.nonzero(coeff)
    M[(shifts @ strides)[term] + col, col] = coeff[term, col]
    return M


class AlgebraElement:
    """Sparse element of O(F) (or of the free algebra during divided powers)."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: FlagSpec, terms: dict | None = None):
        self.spec = spec
        self.terms = {m: c % spec.p for m, c in (terms or {}).items() if c % spec.p}

    @classmethod
    def _trusted(cls, spec: FlagSpec, terms: dict) -> "AlgebraElement":
        """Wrap `terms` as is: its coefficients are already in [1, p)."""
        out = cls.__new__(cls)
        out.spec = spec
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(spec: FlagSpec) -> "AlgebraElement":
        return AlgebraElement(spec, {})

    @staticmethod
    def one(spec: FlagSpec) -> "AlgebraElement":
        return AlgebraElement(spec, {spec.zero_mono(): 1})

    @staticmethod
    def scalar(spec: FlagSpec, c: int) -> "AlgebraElement":
        return AlgebraElement(spec, {spec.zero_mono(): c})

    @staticmethod
    def monomial(spec: FlagSpec, mono, coeff: int = 1) -> "AlgebraElement":
        mono = tuple(int(a) for a in mono)
        if len(mono) != spec.n or any(a < 0 for a in mono):
            raise ValueError(f"bad exponent vector {mono}")
        if any(a >= cap for a, cap in zip(mono, spec.caps)):
            raise OutOfAlgebraError(mono)
        return AlgebraElement(spec, {mono: coeff})

    @staticmethod
    def generator(spec: FlagSpec, i: int, power: int = 1) -> "AlgebraElement":
        """x_i^(power), 0-based index."""
        mono = [0] * spec.n
        mono[i] = power
        return AlgebraElement.monomial(spec, tuple(mono))

    # -- basics --------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.spec == other.spec \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.spec, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"<{render_element(self)}>"

    def constant_term(self) -> int:
        return self.terms.get(self.spec.zero_mono(), 0)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        p = self.spec.p
        for m, c in other.terms.items():
            out[m] = (out.get(m, 0) + c) % p
        return AlgebraElement._trusted(self.spec, {m: c for m, c in out.items() if c})

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: int) -> "AlgebraElement":
        p = self.spec.p
        c %= p
        if not c:
            return AlgebraElement.zero(self.spec)
        return AlgebraElement._trusted(self.spec,
                                       {m: a * c % p for m, a in self.terms.items()})

    def _check(self, other):
        if self.spec is not other.spec and self.spec != other.spec:
            raise ValueError("algebra mismatch")

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other):
        """Truncated product; exact because dropped terms vanish mod p."""
        return self._product(other, self.spec.caps)

    def mul_free(self, other) -> "AlgebraElement":
        """Product in the free divided power algebra (no truncation)."""
        return self._product(other, None)

    def _product(self, other, caps) -> "AlgebraElement":
        """Term-by-term product; caps=None multiplies in the free algebra.

        With caps, terms with an exponent at or past its cap are dropped
        first; the rest multiply as in the free algebra, since a product
        exponent a + b >= p^m of two exponents below p^m carries past digit
        m - 1 and so has C(a + b, a) = 0 mod p (Lucas).  Coordinates where
        either exponent is 0 contribute the binomial 1 and are skipped.
        """
        self._check(other)
        p = self.spec.p
        rows, B = _binom_rows(p)
        left, right = self.terms.items(), other.terms.items()
        if caps is not None:
            left = [t for t in left if all(map(lt, t[0], caps))]
            right = [t for t in right if all(map(lt, t[0], caps))]
        out: dict = {}
        for m1, c1 in left:
            nz = [(i, a) for i, a in enumerate(m1) if a]
            for m2, c2 in right:
                coeff = c1 * c2
                for i, a in nz:
                    b = m2[i]
                    if b:
                        s = a + b
                        t = rows[s][a] if s < B else _binom(s, a, p)
                        if not t:
                            break
                        coeff *= t
                else:                       # no binomial was 0 mod p
                    key = tuple(map(add, m1, m2))
                    out[key] = (out.get(key, 0) + coeff) % p
        return AlgebraElement._trusted(self.spec, {m: c for m, c in out.items() if c})

    # -- structure queries ----------------------------------------------------

    def filtration_degree(self):
        """min |alpha| over the support; None for the zero element."""
        if not self.terms:
            return None
        return min(sum(m) for m in self.terms)

    def in_filtration(self, k: int) -> bool:
        return all(sum(m) >= k for m in self.terms)

    def in_m2(self) -> bool:
        """Membership in m(F)^2: no constant, no pure-power monomials."""
        return all(sum(m) >= 2 and not _is_pure_power(m, self.spec.p)
                   for m in self.terms)

    def in_C_k(self, k: int) -> bool:
        """f^(p^k) stays in O(F); monomial-wise basis test."""
        if self.constant_term():
            raise ValueError("C_k is only defined inside the maximal ideal")
        return all(in_C_k_mono(m, k, self.spec) for m in self.terms)

    def partial(self, i: int) -> "AlgebraElement":
        """The partial derivative d/dx_i: x_i^(k) -> x_i^(k-1)."""
        return AlgebraElement._trusted(self.spec, {
            m[:i] + (m[i] - 1,) + m[i + 1:]: c for m, c in self.terms.items() if m[i]})

    def linear_part(self) -> list:
        """Coefficients of x_1, ..., x_n."""
        out = []
        for i in range(self.spec.n):
            mono = tuple(1 if j == i else 0 for j in range(self.spec.n))
            out.append(self.terms.get(mono, 0))
        return out

    # -- divided powers, exp, units -------------------------------------------

    def _dp_free_p(self) -> "AlgebraElement":
        """f^(p) in the free algebra by the multinomial addition rule."""
        p = self.spec.p
        items = list(self.terms.items())
        out: dict = {}

        def rec(idx, remaining, acc):
            if idx == len(items):
                if remaining == 0:
                    for m, c in acc.terms.items():
                        out[m] = (out.get(m, 0) + c) % p
                return
            mono, c = items[idx]
            choices = range(remaining + 1) if idx < len(items) - 1 else [remaining]
            for beta in choices:
                coeff = mono_dp_coeff(mono, beta, p) if beta else 1
                coeff = coeff * pow(c, beta, p) % p
                if not coeff:
                    continue
                piece = AlgebraElement(
                    self.spec, {tuple(a * beta for a in mono): coeff})
                rec(idx + 1, remaining - beta, acc.mul_free(piece))

        rec(0, p, AlgebraElement.one(self.spec))
        return AlgebraElement._trusted(self.spec, {m: c for m, c in out.items() if c})

    def _p_power_tower(self, length: int) -> list:
        """[f, f^(p), f^(p^2), ...] in the free algebra, `length` entries."""
        powers = [self]
        for _ in range(length - 1):
            powers.append(powers[-1]._dp_free_p())
        return powers

    def dp_free(self, r: int) -> "AlgebraElement":
        """f^(r) in the free algebra, for f with zero constant term."""
        if r < 0:
            raise ValueError("negative divided power")
        if self.constant_term():
            raise ValueError("divided powers need a zero constant term")
        p = self.spec.p
        if r == 0:
            return AlgebraElement.one(self.spec)
        # f^(r) = prod_k (f^(p^k))^(d_k) / d_k! over the base-p digits d_k of r
        digits = _digits(r, p)
        out = AlgebraElement.one(self.spec)
        for d, g in zip(digits, self._p_power_tower(len(digits))):
            for _ in range(d):
                out = out.mul_free(g)
        return out.scale(inv_scalar(math.prod(map(math.factorial, digits)), p))

    def divided_power(self, r: int) -> "AlgebraElement":
        """f^(r) inside O(F); raises OutOfAlgebraError if it escapes."""
        out = self.dp_free(r)
        caps = self.spec.caps
        for m in out.terms:
            for a, cap in zip(m, caps):
                if a >= cap:
                    raise OutOfAlgebraError(m)
        return out

    def exp_interior(self) -> "AlgebraElement":
        """exp(f) = sum_r f^(r) for f in m^2, whose divided powers all stay in
        O(F).  Since exp(g + h) = exp(g) exp(h), it is the product over the
        terms c x^(a) of f of sum_r c^r (x^(a))^(r), with (x^(a))^(r) =
        `mono_dp_coeff`(a, r) x^(r a).  A series ends at its first
        coefficient 0 mod p (each coefficient is a multiple of the one
        before), which comes before r a reaches a cap."""
        if self.constant_term():
            raise ValueError("exp needs a zero constant term")
        if not self.in_m2():
            bad = next(m for m in self.terms if _is_pure_power(m, self.spec.p))
            raise OutOfAlgebraError(bad, "exp escapes O(F): pure-power term "
                                    f"{bad} has an escaping divided power")
        p = self.spec.p
        caps = self.spec.caps
        out = AlgebraElement.one(self.spec)
        for mono, c in self.terms.items():
            series = {self.spec.zero_mono(): 1}
            r, coeff = 1, mono_dp_coeff(mono, 1, p)
            while coeff:
                power = tuple(r * a for a in mono)
                ensure(all(map(lt, power, caps)), "interior divided power escaped")
                series[power] = coeff * pow(c, r, p) % p
                r += 1
                coeff = mono_dp_coeff(mono, r, p)
            out = out * AlgebraElement._trusted(self.spec, series)
        return out

    def invert_unit(self) -> "AlgebraElement":
        """Inverse of a unit via the geometric series of the nilpotent part."""
        c = self.constant_term()
        if not c:
            raise ValueError("not a unit: zero constant term")
        p = self.spec.p
        cinv = inv_scalar(c, p)
        nil = AlgebraElement(self.spec, dict(self.terms))
        nil.terms.pop(self.spec.zero_mono(), None)
        nil = nil.scale(cinv)
        # (1 + n)^{-1} = 1 - n + n^2 - ...; n is nilpotent by filtration
        out = AlgebraElement.one(self.spec)
        power = AlgebraElement.one(self.spec)
        sign = 1
        for _ in range(self.spec.top_degree):
            power = power * nil
            sign = -sign
            if not power:
                break
            out = out + power.scale(sign)
        return out.scale(cinv)


def _is_pure_power(mono: Mono, p: int):
    """(i, l) if mono = x_i^(p^l), else None; the constant is not pure."""
    nz = [(i, a) for i, a in enumerate(mono) if a]
    if len(nz) != 1:
        return None
    i, a = nz[0]
    l = 0
    while a % p == 0:
        a //= p
        l += 1
    return (i, l) if a == 1 else None


def in_C_k_mono(mono: Mono, k: int, spec: FlagSpec) -> bool:
    pw = _is_pure_power(mono, spec.p)
    if pw is None:
        return True
    i, l = pw
    return l + k < spec.heights[i]


def render_element(f: AlgebraElement) -> str:
    """Canonical text: `1 + 2*x1^(2)*x2`, lexicographic term order."""
    if not f.terms:
        return "0"
    parts = []
    for mono, c in f.sorted_terms():
        factors = []
        for i, a in enumerate(mono):
            if a == 0:
                continue
            name = f"x{i + 1}"
            factors.append(name if a == 1 else f"{name}^({a})")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)


@lru_cache(maxsize=None)
def _mono_pool(spec: FlagSpec, in_m: bool, in_m2: bool) -> tuple:
    """The monomials random_element draws from, in `spec.monomials()` order."""
    return tuple(m for m in spec.monomials()
                 if not ((in_m or in_m2) and sum(m) == 0)
                 and not (in_m2 and (sum(m) < 2 or _is_pure_power(m, spec.p))))


def random_element(rng, spec: FlagSpec, max_terms: int = 3, *,
                   in_m: bool = True, in_m2: bool = False) -> AlgebraElement:
    """Random sparse element for fuzzing, from the admissible monomial pool."""
    pool = _mono_pool(spec, in_m, in_m2)
    if not pool:
        return AlgebraElement.zero(spec)
    terms = {pool[rng.randrange(len(pool))]: rng.randrange(1, spec.p)
             for _ in range(max_terms)}
    return AlgebraElement(spec, terms)
