"""Differential forms and their cohomology over a divided power algebra.

Shows the exterior calculus, the top-cocycle basis of the cohomology,
potentials read off the contracting homotopy of the complex (a tensor
product of one-variable complexes), and the twisted (acyclic) complexes
attached to nontrivial unit classes.
"""
from charpforms.algebra import AlgebraElement, FlagSpec, render_element
from charpforms.forms import (DiffForm, cohomology_basis, cohomology_dims,
                              d_element, decompose_z1, dlog, e_vector_form,
                              is_exact_with_potential, render_form,
                              twisted_cohomology_dims)

spec = FlagSpec(p=3, heights=(1, 2))
print(f"p = {spec.p}, heights = {spec.heights}")
print("dim H^k:", cohomology_dims(spec))

print("\ncohomology class representatives:")
for k in range(spec.n + 1):
    for z in cohomology_basis(spec, k):
        print(f"  H^{k}:", render_form(z))

# d and the exactness solver
f = AlgebraElement.monomial(spec, (1, 2))
omega = d_element(f)
print("\nomega = d(x1 x2^(2)) =", render_form(omega))
phi = is_exact_with_potential(omega)
print("recovered potential  =", render_form(phi))
print("d(potential) == omega:", phi.d() == omega)

# a closed 1-form splits as u^{-1}du + sum e_i dx_i
psi = d_element(f) + DiffForm(spec, 1, {(0,): AlgebraElement.monomial(spec, (2, 0))})
e, u = decompose_z1(psi)
print("\nclosed psi          =", render_form(psi))
print("u-class component e =", [int(c) for c in e])
print("witness unit u      =", render_element(u))
print("check equality      :", dlog(u) + e_vector_form(spec, e) == psi)

# twisting by a nonzero class kills all cohomology
for e in [(1, 0), (0, 1), (2, 2)]:
    print(f"\ntwisted dims for e = {e}:", twisted_cohomology_dims(spec, e))
