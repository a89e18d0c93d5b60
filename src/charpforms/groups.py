"""Divided-power automorphisms of O(F) and their action on elements and forms.

An automorphism is stored by its image tuple (y_1, ..., y_n) with
y_i in C_{m_i - 1}(F) and invertible Jacobian det(d_i y_j); this matches the
tuple parameterization of the full group, and the subgroup filtrations are
read off y_i - x_i monomial-wise.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gfp
from .algebra import AlgebraElement, FlagSpec, _is_pure_power, in_C_k_mono
from .forms import DiffForm, d_element, decompose_z1


@dataclass
class Derivation:
    """A distinguished derivation sum coeffs[i] * d_i of W(F)."""
    spec: FlagSpec
    coeffs: tuple

    def __post_init__(self):
        self.coeffs = tuple(self.coeffs)
        gfp.ensure(len(self.coeffs) == self.spec.n,
                   "derivation needs one coefficient per variable")

    def in_gprime(self, j: int = 0) -> bool:
        """Membership in g'(F)_j = (m^2 ∩ m^(j+1)) W(F)."""
        return all((not f) or (f.in_m2() and f.in_filtration(j + 1))
                   for f in self.coeffs)

    def apply(self, f: AlgebraElement) -> AlgebraElement:
        out = AlgebraElement.zero(self.spec)
        for i, c in enumerate(self.coeffs):
            if c:
                out = out + c * f.partial(i)
        return out


class Automorphism:
    __slots__ = ("spec", "images", "_mono_cache")

    def __init__(self, spec: FlagSpec, images):
        self.spec = spec
        self.images = tuple(images)
        if len(self.images) != spec.n:
            raise ValueError("need one image per generator")
        for i, y in enumerate(self.images):
            if y.spec != spec:
                raise ValueError("image in the wrong algebra")
            if y.constant_term():
                raise ValueError(f"image {i} has a constant term")
            if not y.in_C_k(spec.heights[i] - 1):
                raise ValueError(
                    f"image {i} is outside C_{spec.heights[i] - 1}(F): "
                    "some required divided power escapes")
        if not gfp.is_invertible(self.linear_matrix(), spec.p):
            raise ValueError("Jacobian det(d_i y_j) is not invertible")
        self._mono_cache = {spec.zero_mono(): AlgebraElement.one(spec)}

    def linear_matrix(self) -> np.ndarray:
        """A with A[i][j] = coefficient of x_j in y_i (the action on E)."""
        return np.array([y.linear_part() for y in self.images], dtype=np.int64)

    def is_identity(self) -> bool:
        return all(y == AlgebraElement.generator(self.spec, i)
                   for i, y in enumerate(self.images))

    # -- action ---------------------------------------------------------------

    def _image_mono(self, mono) -> AlgebraElement:
        """sigma(x^(a)) = sigma(prefix) * y_l^(a_l), l the last nonzero
        coordinate, every prefix cached; y_l^(a_l) is interior (C_{m_l-1})."""
        out = self._mono_cache.get(mono)
        if out is None:
            last = max(i for i, a in enumerate(mono) if a)
            prefix = mono[:last] + (0,) * (len(mono) - last)
            if any(prefix):
                out = self._image_mono(prefix) * self._image_mono((0,) * last + mono[last:])
            else:
                out = self.images[last].divided_power(mono[last])
            self._mono_cache[mono] = out
        return out

    def apply_to_element(self, f: AlgebraElement) -> AlgebraElement:
        """sum c * sigma(x^(m)), summed in one dict; a coefficient that
        cancels is deleted at once, so the term order is that of adding the
        scaled images one by one."""
        p = self.spec.p
        out: dict = {}
        for mono, c in f.terms.items():
            for m, a in self._image_mono(mono).terms.items():
                v = (out.get(m, 0) + a * c) % p
                if v:
                    out[m] = v
                else:
                    del out[m]
        return AlgebraElement._trusted(self.spec, out)

    def apply_to_form(self, omega: DiffForm) -> DiffForm:
        dys = [d_element(y) for y in self.images]
        out = DiffForm.zero(self.spec, omega.degree)
        for I, f in omega.terms.items():
            piece = DiffForm.from_function(self.apply_to_element(f))
            for i in I:
                piece = piece.wedge(dys[i])
            out = out + piece
        return out

    # -- group structure -------------------------------------------------------

    def compose(self, other: "Automorphism") -> "Automorphism":
        """(self . other): x_i -> self(other(x_i))."""
        return Automorphism(self.spec,
                            [self.apply_to_element(y) for y in other.images])

    def invert(self) -> "Automorphism":
        """Filtration-graded fixed-point iteration for the inverse images."""
        spec = self.spec
        lin = linear_automorphism(spec, gfp.inverse(self.linear_matrix(), spec.p))
        gens = [AlgebraElement.generator(spec, i) for i in range(spec.n)]
        z = [lin.apply_to_element(g) for g in gens]
        for _ in range(spec.top_degree + 2):
            residual = [self.apply_to_element(zi) - g for zi, g in zip(z, gens)]
            if not any(residual):
                break
            z = [zi - lin.apply_to_element(r) for zi, r in zip(z, residual)]
        else:
            raise gfp.CheckFailed("inverse iteration did not converge")
        return Automorphism(spec, z)

    # -- membership -------------------------------------------------------------

    def in_Gprime(self) -> bool:
        return all((y - AlgebraElement.generator(self.spec, i)).in_m2()
                   for i, y in enumerate(self.images))

    def in_G_j(self, j: int) -> bool:
        """sigma f - f in m^(j+l) for all f in m^(l); j >= 1 via generators."""
        if j <= 0:
            return True
        return all((y - AlgebraElement.generator(self.spec, i)).in_filtration(j + 1)
                   for i, y in enumerate(self.images))


def identity_automorphism(spec: FlagSpec) -> Automorphism:
    return Automorphism(spec, [AlgebraElement.generator(spec, i)
                               for i in range(spec.n)])


def linear_automorphism(spec: FlagSpec, A) -> Automorphism:
    """The automorphism x_i -> sum_j A[i][j] x_j (A flag-preserving)."""
    A = gfp.modp(A, spec.p)
    imgs = []
    for i in range(spec.n):
        terms = {}
        for j in range(spec.n):
            if A[i, j]:
                mono = tuple(1 if k == j else 0 for k in range(spec.n))
                terms[mono] = int(A[i, j])
        imgs.append(AlgebraElement(spec, terms))
    return Automorphism(spec, imgs)


def from_derivation(delta: Derivation, j: int = 1) -> Automorphism:
    """The automorphism x_i -> x_i + delta(x_i) for delta in g'(F)_j."""
    if not delta.in_gprime(j):
        raise ValueError("derivation is outside g'(F)_j")
    spec = delta.spec
    return Automorphism(spec, [AlgebraElement.generator(spec, i) + delta.coeffs[i]
                               for i in range(spec.n)])


# -- random sampling ------------------------------------------------------------

@lru_cache(maxsize=None)
def _allowed_higher_monos(spec: FlagSpec, i: int, min_degree: int = 2,
                          pure_ok: bool = True) -> array:
    """Indices, in `spec.monomials()` order, of the monomials of degree
    >= min_degree admissible in the image of x_i: those in C_{m_i - 1},
    and no pure powers unless pure_ok."""
    k = spec.heights[i] - 1
    return array("I", (j for j, mono in enumerate(spec.monomials())
                       if sum(mono) >= min_degree and in_C_k_mono(mono, k, spec)
                       and (pure_ok or _is_pure_power(mono, spec.p) is None)))


def random_flag_linear(rng, spec: FlagSpec) -> np.ndarray:
    """Random invertible A with A[i][j] = 0 unless m_j >= m_i."""
    n = spec.n
    p = spec.p
    while True:
        A = gfp.zeros(n, n)
        for i in range(n):
            for j in range(n):
                if spec.heights[j] >= spec.heights[i]:
                    A[i, j] = rng.randrange(p)
        if gfp.is_invertible(A, p):
            return A


def random_in(rng, spec: FlagSpec, group: str = "G", j: int = 0,
              extra_terms: int = 2) -> Automorphism:
    """Random element of G, G', G_j or G'_j.

    group "G"/"G_j": random flag-preserving linear part; "Gprime"/"Gprime_j":
    identity linear part.  Higher terms are sampled uniformly from the
    admissible monomial windows.
    """
    p = spec.p
    if group in ("G", "G_j"):
        A = random_flag_linear(rng, spec) if (group == "G" or j == 0) \
            else gfp.eye(spec.n)
        base = linear_automorphism(spec, A).images
        pure_ok = True
        min_deg = max(2, j + 1)
    elif group in ("Gprime", "Gprime_j"):
        base = [AlgebraElement.generator(spec, i) for i in range(spec.n)]
        pure_ok = False
        min_deg = max(2, j + 1)
    else:
        raise ValueError(f"unknown group {group!r}")
    images = []
    for i in range(spec.n):
        window = _allowed_higher_monos(spec, i, min_deg, pure_ok)
        extra = AlgebraElement.zero(spec)
        for _ in range(extra_terms):
            if not window:
                break
            mono = np.unravel_index(rng.choice(window), spec.caps)
            extra = extra + AlgebraElement.monomial(spec, mono, rng.randrange(1, p))
        images.append(base[i] + extra)
    return Automorphism(spec, images)


# -- u-class transport ------------------------------------------------------------

def transport_witness(sigma: Automorphism, e):
    """(e', w, lam) with sigma(exp(sum e_i x_i)) = lam * w * exp(sum e'_i x_i).

    e' is the dE-component of the closed 1-form d(sigma(sum e_i x_i)), so
    elements of G' fix it; w is a unit of O(F) and lam a nonzero scalar.
    Used to rewrite sigma(exp(e) * body) as a candidate in normal u-class
    position.
    """
    spec = sigma.spec
    p = spec.p
    g = AlgebraElement.zero(spec)
    for i, c in enumerate(e):
        if int(c) % p:
            g = g + sigma.images[i].scale(int(c))
    if not g:
        return (np.zeros(spec.n, dtype=np.int64), AlgebraElement.one(spec), 1)
    e_new, w = decompose_z1(d_element(g))
    lam = gfp.inv_scalar(w.constant_term(), p)
    return e_new, w, lam
