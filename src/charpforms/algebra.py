"""Truncated divided power algebras over F_p.

An algebra is determined by a prime p and heights (m_1, ..., m_n): it has a
monomial basis x_1^(a_1)...x_n^(a_n) with 0 <= a_i < p^{m_i}, multiplication
x^(r) x^(s) = C(r+s, r) x^(r+s), and dimension p^{m_1+...+m_n}.  Elements are
sparse dicts {exponent tuple: nonzero coefficient}.

Products add packed digit keys (`_Keys`), one bit field per base-p digit of
each exponent.  By Lucas and Kummer, C(a+b, a) is nonzero mod p exactly when
no digit carries, and then it is wt(a+b) / (wt(a) wt(b)), wt the product of
the digit factorials.  So products truncate exactly: an exponent past
p^{m_i} needs a carry past digit m_i - 1.  The binomials of `mono_dp_coeff`
and `multiplication_matrix` use the same digit factorials (`_binom`).

Divided powers f^(r) are computed in the free algebra (no exponent caps) and
only then tested against the truncation; a result with an out-of-range
exponent carrying a nonzero coefficient raises OutOfAlgebraError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from operator import floordiv, lt

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
        return product(*map(range, self.caps))

    def heights_multiset(self) -> tuple:
        return tuple(sorted(self.heights))


class OutOfAlgebraError(Exception):
    """A divided power left the truncated algebra."""

    def __init__(self, mono=None, msg=None):
        self.mono = mono
        super().__init__(msg or f"divided power escapes the algebra at {mono}")


@lru_cache(maxsize=1 << 16)
def mono_dp_coeff(alpha: Mono, r: int, p: int) -> int:
    """Coefficient of (x^(alpha))^(r) = c * x^(r*alpha), exactly mod p.

    Over Q, (x^(alpha))^(r) = (x^(alpha))^r / r! and (x^(a))^r =
    (r*a)!/(a!)^r x^(r*a), so c = prod_i (r*a_i)! / (r! * prod_i (a_i!)^r).
    One coordinate gives (r*a)!/(r! (a!)^r) = prod_{j=1..r} C(j*a - 1, a - 1)
    (choose the block of the smallest unplaced element, j = r..1), an
    integer.  So with k coordinates a_i != 0, c = (r!)^{k-1} *
    prod_{a_i != 0} prod_{j=1..r} C(j*a_i - 1, a_i - 1), every binomial from
    `_binom`.  For alpha = 0, c = 1/r!, which exists mod p only for r < p.
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


@lru_cache(maxsize=None)
def _digit_factorials(p: int) -> tuple:
    """(d! mod p, 1/d! mod p) for the digits d < p, one list each."""
    fact = [math.factorial(d) % p for d in range(p)]
    return fact, [inv_scalar(f, p) for f in fact]


def _binom(s: int, a: int, p: int) -> int:
    """C(s, a) mod p for 0 <= a <= s, by Lucas' theorem: the product of
    s_i! / (a_i! (s_i - a_i)!) over the base-p digits, 0 when a digit of a
    exceeds that of s."""
    fact, inv = _digit_factorials(p)
    c = 1
    while a:
        (s, sd), (a, ad) = divmod(s, p), divmod(a, p)
        if ad > sd:
            return 0
        c = c * fact[sd] * inv[ad] * inv[sd - ad] % p
    return c


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


class _Keys:
    """Keys of one layout, digits[i] base-p digits in coordinate i: a key is
    that digit string read in base 2^w, w = p.bit_length() + 1, so a digit
    sum d1 + d2 <= 2p - 2 fits its field.  K holds 2^(w-1) - p and H the bit
    2^(w-1) in every field: (K + k1 + k2) & H != 0 iff a digit carries.
    wt is the product of the factorials of the digits, a unit mod p.
    `enc` maps a monomial to (key, 1/wt mod p), or False past the layout,
    `dec` a key plus K to (monomial, wt mod p); both emptied past LIMIT."""
    LIMIT = 1 << 10                 # entries in the two tables

    def __init__(self, p: int, digits: tuple):
        self.p, self.digits, self.w = p, digits, p.bit_length() + 1
        ones = sum(1 << self.w * i for i in range(sum(digits)))
        self.K, self.H = ones * ((1 << self.w - 1) - p), ones << self.w - 1
        self.fact = _digit_factorials(p)[0]
        self.enc, self.dec = {}, {}

    def encode(self, mono: Mono):
        p, w, fact, key, wt, fits = self.p, self.w, self.fact, 0, 1, True
        for a, nd in zip(mono, self.digits):
            key <<= w * nd
            for j in range(nd):
                a, d = divmod(a, p)
                key, wt = key | d << w * j, wt * fact[d] % p
            fits = fits and not a
        self.enc[mono] = out = fits and (key, inv_scalar(wt, p))
        return out

    def decode(self, key: int) -> tuple:
        p, w, fact, k, mono, wt = self.p, self.w, self.fact, key - self.K, [], 1
        for nd in reversed(self.digits):
            a = 0
            for j in range(nd):
                d, k = k & (1 << w) - 1, k >> w
                a, wt = a + d * p ** j, wt * fact[d] % p
            mono.append(a)
        self.dec[key] = out = (tuple(reversed(mono)), wt)
        return out

    def decoded(self, acc: dict, spec: FlagSpec) -> "AlgebraElement":
        """The element sum c * wt x^(mono) over the offset keys of acc."""
        if len(self.enc) + len(self.dec) > self.LIMIT:
            self.enc, self.dec = {}, {}
        p, dec, terms = self.p, self.dec, {}
        for k, c in acc.items():
            mono, wt = dec.get(k) or self.decode(k)
            if c := c * wt % p:
                terms[mono] = c
        return AlgebraElement._trusted(spec, terms)


_keys = lru_cache(maxsize=32)(_Keys)      # one _Keys per (p, digits)


def _free_keys(spec: FlagSpec, tops) -> _Keys:
    """Keys for exponents up to tops[i]: the heights plus the fewest extra
    digits, the same in every coordinate, so an algebra has few layouts."""
    over, extra = max(map(floordiv, tops, spec.caps), default=0), 0
    while over:
        over, extra = over // spec.p, extra + 1
    return _keys(spec.p, tuple(m + extra for m in spec.heights) if extra else spec.heights)


@lru_cache(maxsize=1 << 12)
def _dp_pieces(keys: _Keys, mono: Mono, c: int) -> tuple:
    """Entry beta <= p is (key, coefficient / wt) of (c x^(mono))^(beta) =
    c^beta mono_dp_coeff(mono, beta) x^(beta mono), None if that is 0."""
    p, out = keys.p, [(0, 1)]
    for beta in range(1, p + 1):
        coeff = mono_dp_coeff(mono, beta, p) * pow(c, beta, p) % p
        if coeff:
            key, winv = keys.encode(tuple(a * beta for a in mono))
            coeff = (key, coeff * winv % p)
        out.append(coeff or None)
    return tuple(out)


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
        return self._product(other, _keys(self.spec.p, self.spec.heights))

    def mul_free(self, other) -> "AlgebraElement":
        """Product in the free divided power algebra (no truncation)."""
        tops = map(max, zip(*self.terms, *other.terms))
        return self._product(other, _free_keys(self.spec, tops))

    def _product(self, other, keys: _Keys) -> "AlgebraElement":
        """Term-by-term product on the keys of one layout; with the heights
        as the layout, a term past a cap does not encode and is dropped.
        Coefficients, scaled by 1/wt, accumulate in pair order."""
        self._check(other)
        H, K, enc, code = keys.H, keys.K, keys.enc.get, keys.encode
        right = [(e[0], c * e[1]) for m, c in other.terms.items()
                 if (e := enc(m) or code(m))]
        out: dict = {}
        get = out.get
        for m1, c1 in self.terms.items():
            if e := enc(m1) or code(m1):
                k1, c1 = e[0] + K, c1 * e[1]
                for k2, c2 in right:
                    k = k1 + k2
                    if not k & H:
                        out[k] = get(k, 0) + c1 * c2
        return keys.decoded(out, self.spec)

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
        """f^(p) in the free algebra by the multinomial addition rule; each
        product of monomial powers is carried as one key and one scalar."""
        p = self.spec.p
        keys = _free_keys(self.spec, [p * t for t in map(max, zip(*self.terms))])
        H = keys.H
        pieces = [_dp_pieces(keys, mono, c) for mono, c in self.terms.items()]
        last = len(pieces) - 1
        out: dict = {}

        def rec(idx, remaining, key, coeff):
            for beta in range(remaining + 1) if idx < last else (remaining,):
                piece = pieces[idx][beta]
                if piece and not (k := key + piece[0]) & H:
                    if idx < last:
                        rec(idx + 1, remaining - beta, k, coeff * piece[1] % p)
                    else:
                        out[k] = out.get(k, 0) + coeff * piece[1] % p

        if pieces:
            rec(0, p, keys.K, 1)
        return keys.decoded(out, self.spec)

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
        out, g, unit = None, self, 1
        while r:
            r, d = divmod(r, p)
            for _ in range(d):
                out = g if out is None else out.mul_free(g)
            unit = unit * math.factorial(d) % p
            g = g._dp_free_p() if r else g
        return out.scale(inv_scalar(unit, p))

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
