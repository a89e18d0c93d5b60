"""The complex of differential forms over a truncated divided power algebra.

A degree-k form is a sparse map {strictly increasing index tuple I (0-based,
length k): AlgebraElement coefficient}.  The exterior derivative acts by
d(f dx_I) = sum_i (d_i f) dx_i ^ dx_I, so the complex is the tensor product
of the one-variable complexes O_i -> O_i dx_i.  Their contracting homotopies
give exact potentials in one pass over the terms and the cohomology basis of
top cocycles.  The twisted complex d' = d + eta ^ (.) splits into residue
blocks that are tensor products of two-term complexes too, so its
cohomology dimensions (and, at e = 0, those of d) are a closed formula.
Everything is exact over F_p.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .algebra import AlgebraElement, FlagSpec
from .gfp import ensure


def _merge_sign(I: tuple, J: tuple):
    """Sorted union of disjoint increasing tuples with the shuffle sign."""
    out = []
    i = j = 0
    inversions = 0
    while i < len(I) and j < len(J):
        if I[i] == J[j]:
            return None, 0
        if I[i] < J[j]:
            out.append(I[i])
            i += 1
        else:
            out.append(J[j])
            inversions += len(I) - i
            j += 1
    out.extend(I[i:])
    out.extend(J[j:])
    return tuple(out), (-1) ** inversions


class DiffForm:
    """Sparse differential form with AlgebraElement coefficients."""

    __slots__ = ("spec", "degree", "terms")

    def __init__(self, spec: FlagSpec, degree: int, terms: dict | None = None):
        # degrees outside 0..n are permitted only for the zero form (they
        # arise as d of top-degree forms and contractions of 0-forms)
        n = spec.n
        if (degree < 0 or degree > n) and terms:
            raise ValueError(f"bad form degree {degree}")
        self.spec = spec
        self.degree = degree
        self.terms = {}
        for I, f in (terms or {}).items():
            I = tuple(I)
            if f:
                if len(I) != degree or list(I) != sorted(set(I)) or \
                        I and (I[0] < 0 or I[-1] >= n):
                    raise ValueError(f"bad wedge index tuple {I}")
                self.terms[I] = f

    @staticmethod
    def zero(spec: FlagSpec, degree: int) -> "DiffForm":
        return DiffForm(spec, degree, {})

    @staticmethod
    def from_function(f: AlgebraElement) -> "DiffForm":
        return DiffForm(f.spec, 0, {(): f})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, DiffForm) and self.spec == other.spec
                and self.degree == other.degree and self.terms == other.terms)

    def __repr__(self):
        return f"<form deg {self.degree}: {render_form(self)}>"

    def __add__(self, other):
        ensure(self.spec == other.spec and self.degree == other.degree,
               "adding forms of different spec or degree")
        out = dict(self.terms)
        for I, f in other.terms.items():
            g = out.get(I)
            out[I] = f if g is None else g + f
        return DiffForm(self.spec, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c: int) -> "DiffForm":
        return DiffForm(self.spec, self.degree,
                        {I: f.scale(c) for I, f in self.terms.items()})

    def mul_function(self, g: AlgebraElement) -> "DiffForm":
        return DiffForm(self.spec, self.degree,
                        {I: g * f for I, f in self.terms.items()})

    def coefficient(self, I: tuple) -> AlgebraElement:
        return self.terms.get(tuple(I), AlgebraElement.zero(self.spec))

    def d(self) -> "DiffForm":
        out: dict = {}
        for I, f in self.terms.items():
            for i in range(self.spec.n):
                df = f.partial(i)
                if not df:
                    continue
                J, sign = _merge_sign((i,), I)
                if J is None:
                    continue
                piece = df.scale(sign)
                g = out.get(J)
                out[J] = piece if g is None else g + piece
        return DiffForm(self.spec, self.degree + 1, out)

    def wedge(self, other: "DiffForm") -> "DiffForm":
        ensure(self.spec == other.spec, "wedge of forms over different specs")
        out: dict = {}
        for I, f in self.terms.items():
            for J, g in other.terms.items():
                K, sign = _merge_sign(I, J)
                if K is None:
                    continue
                piece = (f * g).scale(sign)
                if not piece:
                    continue
                h = out.get(K)
                out[K] = piece if h is None else h + piece
        return DiffForm(self.spec, self.degree + other.degree, out)

    def contract(self, coeffs: list[AlgebraElement]) -> "DiffForm":
        """Contraction with the derivation sum coeffs[i] * d_i."""
        out: dict = {}
        for I, f in self.terms.items():
            for pos, i in enumerate(I):
                if not coeffs[i]:
                    continue
                J = I[:pos] + I[pos + 1:]
                piece = (coeffs[i] * f).scale((-1) ** pos)
                if not piece:
                    continue
                g = out.get(J)
                out[J] = piece if g is None else g + piece
        return DiffForm(self.spec, self.degree - 1, out)

    def evaluate(self, derivations: list[list[AlgebraElement]]) -> AlgebraElement:
        """omega(delta_1, ..., delta_k) by the alternating determinant rule."""
        ensure(len(derivations) == self.degree,
               "evaluating a form on the wrong number of derivations")
        out = AlgebraElement.zero(self.spec)
        k = self.degree
        for I, f in self.terms.items():
            acc = AlgebraElement.zero(self.spec)
            for perm in itertools.permutations(range(k)):
                sign = _perm_sign(perm)
                prod = AlgebraElement.one(self.spec)
                for a, slot in enumerate(perm):
                    prod = prod * derivations[slot][I[a]]
                    if not prod:
                        break
                acc = acc + prod.scale(sign)
            out = out + f * acc
        return out


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def render_form(omega: DiffForm) -> str:
    from .algebra import render_element
    if not omega.terms:
        return "0"
    parts = []
    for I, f in sorted(omega.terms.items()):
        wedge = "^".join(f"dx{i + 1}" for i in I)
        fs = render_element(f)
        if wedge:
            if fs == "1":
                fs = wedge
            elif len(f.terms) > 1:
                fs = f"({fs}) {wedge}"
            else:
                fs = f"{fs}*{wedge}"
        parts.append(fs)
    return " + ".join(parts)


def cohomology_dims(spec: FlagSpec) -> list[int]:
    """dim H^k = C(n, k) for k = 0..n: the twisted complex at e = 0."""
    return twisted_cohomology_dims(spec, [0] * spec.n)


def top_monomial(spec: FlagSpec, I: tuple) -> tuple:
    """The exponent vector with p^{m_i} - 1 on I and 0 elsewhere."""
    return tuple(spec.caps[i] - 1 if i in I else 0 for i in range(spec.n))


def cohomology_basis(spec: FlagSpec, k: int) -> list[DiffForm]:
    """The cocycles prod_{i in I} x_i^(p^{m_i}-1) dx_I, |I| = k."""
    out = []
    for I in itertools.combinations(range(spec.n), k):
        f = AlgebraElement.monomial(spec, top_monomial(spec, I))
        out.append(DiffForm(spec, k, {I: f}))
    return out


def is_exact_with_potential(omega: DiffForm) -> DiffForm | None:
    """A potential phi with d(phi) = omega, or None; input must be closed.

    The complex is the tensor product of the one-variable complexes
    O_i -> O_i dx_i.  On one variable h_i(x_i^(a) dx_i) = x_i^(a+1) for
    a + 1 < p^{m_i}, h_i is 0 on O_i and on x_i^(p^{m_i}-1) dx_i, and pi_i
    keeps 1 and that class.  H = sum_i (-1)^{|I cap [0,i)|} pi_0...pi_{i-1}
    h_i satisfies dH + Hd = 1 - pi, where pi keeps the top cocycles.  On a
    term x^(a) dx_I only the first i where pi_i kills it can contribute
    (each factor before it is 1 or a top class, which h kills), and only if
    i is in I.  So one pass over the terms gives H(omega): a term that is a
    top cocycle makes omega inexact, and otherwise omega = d(H omega).
    """
    if omega.d():
        raise ValueError("input form is not closed")
    spec = omega.spec
    if omega.degree == 0:
        return None if omega else DiffForm.zero(spec, 0)
    out: dict = {}
    for I, f in omega.terms.items():
        top = top_monomial(spec, I)
        for mono, c in f.terms.items():
            i = next((i for i in range(spec.n) if mono[i] != top[i]), None)
            if i is None:
                return None
            if i not in I:
                continue
            pos = I.index(i)
            J = I[:pos] + I[pos + 1:]
            key = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
            g = out.setdefault(J, {})
            g[key] = g.get(key, 0) + (-1) ** pos * c
    phi = DiffForm(spec, omega.degree - 1,
                   {J: AlgebraElement(spec, g) for J, g in out.items()})
    ensure(phi.d() == omega, "homotopy potential does not integrate the form")
    return phi


def h_class(omega: DiffForm, domega: DiffForm | None = None) -> np.ndarray:
    """Coordinates of [omega] in the basis of classes of the top cocycles.

    For a closed k-form omega - pi(omega) is exact (see
    `is_exact_with_potential`), so the class is read off the coefficients of
    the top cocycles, ordered by the C(n, k) increasing index tuples I.
    `domega`, if given, is d omega, already computed by the caller; a form
    that is not closed raises ValueError either way.
    """
    if omega.d() if domega is None else domega:
        raise ValueError("input form is not closed")
    spec = omega.spec
    k = omega.degree
    combos = list(itertools.combinations(range(spec.n), k))
    out = np.zeros(len(combos), dtype=np.int64)
    for idx, I in enumerate(combos):
        f = omega.terms.get(I)
        if f is not None:
            out[idx] = f.terms.get(top_monomial(spec, I), 0)
    return out


def h_class_to_form(spec: FlagSpec, k: int, coords) -> DiffForm:
    """The representative cocycle sum coords_I * z_I."""
    out = DiffForm.zero(spec, k)
    for c, z in zip(coords, cohomology_basis(spec, k)):
        out = out + z.scale(int(c))
    return out


# ---------------------------------------------------------------------------
# The splitting Z^1 = {u^{-1}du} ⊕ dE and the u-class digits.
#
# A closed 1-form has, at each pure multidegree p^l * e_i (0 <= l <= m_i), a
# single coordinate c_{il} (the coefficient of x_i^(p^l - 1) dx_i).  Modulo
# logarithmic derivatives of units each dx_i^(p^l) is identified with dx_i
# over F_p, so the dE-component is e_i = sum_l c_{il}.
# ---------------------------------------------------------------------------

def z1_digits(phi: DiffForm, i: int) -> list[int]:
    """[c_{i0}, ..., c_{i m_i}]: coefficients of x_i^(p^l - 1) dx_i."""
    spec = phi.spec
    out = []
    f = phi.terms.get((i,))
    for l in range(spec.heights[i] + 1):
        e = spec.p ** l - 1
        mono = tuple(e if j == i else 0 for j in range(spec.n))
        out.append(f.terms.get(mono, 0) if f is not None else 0)
    return out


def decompose_z1(phi: DiffForm):
    """Split a closed 1-form as u^{-1} du + sum e_i dx_i.

    Returns (e, u) with e an integer vector and u a unit of O(F); the
    decomposition is the closed-form splitting with dE spanned by the
    dx_i.  Exact: the returned data satisfies phi = u^{-1}du + sum e_i dx_i.
    """
    if phi.degree != 1:
        raise ValueError("decompose_z1 wants a 1-form")
    if phi.d():
        raise ValueError("input form is not closed")
    spec = phi.spec
    p = spec.p
    e = [sum(z1_digits(phi, i)) % p for i in range(spec.n)]
    # witness: peel the pure-power digits with factors (1 + a x_i^(p^l)),
    # then the rest of beta is d(g) with g in m^2.
    beta = phi - e_vector_form(spec, e)
    u = AlgebraElement.one(spec)
    for i in range(spec.n):
        digits = z1_digits(beta, i)
        a_prev = 0
        for l in range(spec.heights[i]):
            a = (digits[l] + a_prev) % p
            if a:
                factor = AlgebraElement.one(spec) + \
                    AlgebraElement.generator(spec, i, p ** l).scale(a)
                u = u * factor
            a_prev = a
        ensure((digits[spec.heights[i]] + a_prev) % p == 0,
               "u-class digits inconsistent")
    residual = beta - dlog(u)
    g = is_exact_with_potential(residual)
    ensure(g is not None, "residual of the Z^1 splitting is not exact")
    g0 = g.terms.get((), AlgebraElement.zero(spec))
    g0 = g0 - AlgebraElement.scalar(spec, g0.constant_term())
    ensure(g0.in_m2(), "potential escaped m^2")
    u = u * g0.exp_interior()
    return np.array(e, dtype=np.int64), u


def dlog(u: AlgebraElement) -> DiffForm:
    """u^{-1} du as a 1-form."""
    spec = u.spec
    ui = u.invert_unit()
    return DiffForm(spec, 1, {(i,): ui * u.partial(i) for i in range(spec.n)})


def d_element(f: AlgebraElement) -> DiffForm:
    spec = f.spec
    return DiffForm(spec, 1, {(i,): f.partial(i) for i in range(spec.n)})


def e_vector_form(spec: FlagSpec, e) -> DiffForm:
    """sum e_i dx_i."""
    if len(e) != spec.n:
        raise ValueError(f"u-class vector of length {len(e)}, expected {spec.n}")
    return DiffForm(spec, 1, {
        (i,): AlgebraElement.scalar(spec, int(c))
        for i, c in enumerate(e) if int(c) % spec.p})


def twisted_cohomology_dims(spec: FlagSpec, e) -> list[int]:
    """dim H^k(d') for k = 0..n, where d' = d + eta ^ (.) and eta = sum e_i
    x_i^(p^{m_i}-1) dx_i: C(n, k) when e = 0 mod p, and 0 otherwise.

    d' preserves the multidegree w(x^(a) dx_I) = a + 1_I modulo p^{m_i} in
    each coordinate (eta ^ raises a_i by p^{m_i} - 1 and adds i to I), so
    the complex splits into residue blocks.  Fix w.  At a coordinate with
    w_i != 0 the block holds x_i^(w_i) and x_i^(w_i - 1) dx_i, and d maps
    the first to the second (eta ^ sends x_i^(w_i) past the cap, to 0).
    At w_i = 0 it holds 1 and x_i^(p^{m_i}-1) dx_i, d is 0 and eta ^ maps
    the first to e_i times the second.  So the block is the
    tensor product over i of two-term complexes F_p -> F_p whose map is 1
    when w_i != 0 and e_i when w_i = 0.  By Künneth its cohomology is the
    tensor product of theirs, and a factor is acyclic exactly when its map
    is nonzero.  Only the block w = 0 (one residue class) can survive; it
    is acyclic as soon as some e_i != 0 mod p, and at e = 0 it is the
    exterior algebra on the top cocycles, C(n, k) in degree k.
    """
    if len(e) != spec.n:
        raise ValueError(f"twisting vector of length {len(e)}, expected {spec.n}")
    if any(int(c) % spec.p for c in e):
        return [0] * (spec.n + 1)
    return [math.comb(spec.n, k) for k in range(spec.n + 1)]
