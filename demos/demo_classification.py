"""End-to-end classification: recognize, compute invariants, normalize and
decide equivalence for symplectic and contact forms.

Symplectic forms come in two types: type 1 lives inside the finite complex
and is classified by a multiset of labelled indecomposables (the
descriptor); type 2 carries a nontrivial unit class exp(sum e_i x_i) and is
classified by the height level of e plus a flag-relative grid.  Contact
forms are classified by a distinguished height and a grid.
"""
from charpforms.algebra import AlgebraElement, FlagSpec
from charpforms.classify import (SymplecticCandidate, apply_to_candidate,
                                 equivalent, invariants, is_contact,
                                 is_symplectic, normal_shape, random_form)
from charpforms.forms import DiffForm, render_form
from charpforms.groups import random_in
import random

spec = FlagSpec(p=3, heights=(1, 1))

# --- type 1 -----------------------------------------------------------------
flat = SymplecticCandidate([0, 0], DiffForm(
    spec, 2, {(0, 1): AlgebraElement.one(spec)}))
print("omega =", render_form(flat.body))
print("kind  =", is_symplectic(flat))
print("descriptor:", dict(invariants(flat)))

curvy = SymplecticCandidate([0, 0], DiffForm(
    spec, 2, {(0, 1): AlgebraElement.one(spec) +
              AlgebraElement.monomial(spec, (2, 2))}))
print("\nomega' =", render_form(curvy.body))
print("descriptor:", dict(invariants(curvy)))
print("equivalent to omega?", equivalent(flat, curvy)[0])

# --- orbit invariance --------------------------------------------------------
rng = random.Random(0)
sigma = random_in(rng, spec, "G")
moved = apply_to_candidate(sigma, flat)
print("\nafter a random automorphism the invariants agree:",
      equivalent(flat, moved)[0])

# --- type 2 -----------------------------------------------------------------
t2 = random_form("type2", spec, seed=1)
print("\na random type-2 form has invariants", invariants(t2))
shape = normal_shape(invariants(t2), spec.p)
print("its normal shape body:", render_form(shape.body),
      "with u-class", list(shape.u_class))
print("round trip:", invariants(shape) == invariants(t2))

# --- contact ------------------------------------------------------------------
spec3 = FlagSpec(p=3, heights=(1, 1, 1))
cont = random_form("contact", spec3, seed=2)
print("\na random contact form is recognized:", is_contact(cont))
print("invariants:", invariants(cont))
print("normal shape:", render_form(normal_shape(invariants(cont), 3).form))
