"""Canonical JSON for forms, automorphisms, grids and descriptors.

Form files: {"p", "heights", "u_class", "degree", "terms": [{"coeff",
"mono", "wedge"}]} with wedge 1-based strictly increasing and terms sorted
by (wedge, mono).  Automorphisms: {"p", "heights", "images": [element]} with
element = [{"coeff", "mono"}].  Descriptors: [{"label": {"kind", "top",
"bottom"}, "endo": [coeffs] | null, "mult"}].
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from .algebra import AlgebraElement, FlagSpec
from .classify import (ContactCandidate, ContactInvariant, FormatError,
                       SymplecticCandidate, Type2Invariant)
from .forms import DiffForm
from .gfp import check_prime
from .grind import Indecomposable
from .groups import Automorphism


def _ints(values) -> bool:
    """Every entry is a JSON integer; true/false load as bool, which
    isinstance(_, int) would let through."""
    return {int}.issuperset(map(type, values))


def _need(data: dict, field: str, types):
    if not isinstance(data, dict) or field not in data:
        raise FormatError(field, "missing field")
    val = data[field]
    if not isinstance(val, types) or isinstance(val, bool):   # no field is boolean
        raise FormatError(field, f"expected {types}, got {type(val).__name__}")
    return val


def _int_tuple(val, field: str) -> tuple:
    """val as a tuple, if it is a list of integers."""
    if not isinstance(val, list) or not _ints(val):
        raise FormatError(field, "expected a list of integers")
    return tuple(val)


def check_p(p: int) -> None:
    """Reject an unsupported prime, naming the field `p`."""
    try:
        check_prime(p)
    except ValueError as ex:
        raise FormatError("p", str(ex))


def make_spec(p: int, heights) -> FlagSpec:
    """FlagSpec(p, heights); an unsupported prime names `p`, bad heights
    name `heights`."""
    check_p(p)
    try:
        return FlagSpec(p, tuple(heights))
    except (ValueError, TypeError) as ex:
        raise FormatError("heights", str(ex))


def spec_from_json(data: dict) -> FlagSpec:
    p = _need(data, "p", int)
    heights = _need(data, "heights", list)
    if not _ints(heights):
        raise FormatError("heights", "expected a list of integers")
    return make_spec(p, heights)


def element_to_json(f: AlgebraElement) -> list:
    return [{"coeff": int(c), "mono": list(m)} for m, c in f.sorted_terms()]


def _add_term(spec: FlagSpec, t, field: str, i: int, terms: dict) -> None:
    """Check term record i of `field` ({"coeff", "mono"}), add it into terms."""
    if not isinstance(t, dict):
        raise FormatError(f"{field}[{i}]", "expected a term record")
    mono = t.get("mono")
    coeff = t.get("coeff")
    if not isinstance(mono, list) or len(mono) != spec.n or not _ints(mono):
        raise FormatError(f"{field}[{i}].mono", "bad exponent vector")
    if not _ints([coeff]):
        raise FormatError(f"{field}[{i}].coeff", "expected an integer")
    mono = tuple(mono)
    if any(a < 0 or a >= cap for a, cap in zip(mono, spec.caps)):
        raise FormatError(f"{field}[{i}].mono", "exponent out of range")
    terms[mono] = terms.get(mono, 0) + coeff


def element_from_json(spec: FlagSpec, data, field: str = "element") -> AlgebraElement:
    if not isinstance(data, list):
        raise FormatError(field, "expected a list of terms")
    terms: dict = {}
    for i, t in enumerate(data):
        _add_term(spec, t, field, i, terms)
    return AlgebraElement(spec, terms)


def form_to_json(cand) -> dict:
    if isinstance(cand, SymplecticCandidate):
        form = cand.body
        u = [int(c) for c in cand.u_class]
    elif isinstance(cand, ContactCandidate):
        form = cand.form
        u = [0] * cand.spec.n
    elif isinstance(cand, DiffForm):
        form = cand
        u = [0] * cand.spec.n
    else:
        raise TypeError("cannot serialize this object as a form")
    spec = form.spec
    records = []
    for I, f in form.terms.items():
        for m, c in f.terms.items():
            records.append({"coeff": int(c), "mono": list(m),
                            "wedge": [i + 1 for i in I]})
    records.sort(key=lambda r: (r["wedge"], r["mono"]))
    return {"p": spec.p, "heights": list(spec.heights), "u_class": u,
            "degree": form.degree, "terms": records}


def form_from_json(data: dict):
    """A SymplecticCandidate (degree 2), ContactCandidate (degree 1) or a
    bare DiffForm (other degrees)."""
    if not isinstance(data, dict):
        raise FormatError("<root>", "expected an object")
    spec = spec_from_json(data)
    degree = _need(data, "degree", int)
    if degree < 0 or degree > spec.n:
        raise FormatError("degree", f"outside 0..{spec.n}")
    u = data.get("u_class", [0] * spec.n)
    if not isinstance(u, list) or len(u) != spec.n or \
            not _ints(u):
        raise FormatError("u_class", "expected an integer vector of length n")
    by_wedge: dict = {}          # wedge -> {mono: coefficient sum}
    for i, t in enumerate(_need(data, "terms", list)):
        if not isinstance(t, dict):
            raise FormatError(f"terms[{i}]", "expected a term record")
        wedge = t.get("wedge")
        if not isinstance(wedge, list) or not _ints(wedge) or \
                len(wedge) != degree or sorted(set(wedge)) != wedge or \
                any(i2 < 1 or i2 > spec.n for i2 in wedge):
            raise FormatError(f"terms[{i}].wedge", "bad wedge index list")
        I = tuple(i2 - 1 for i2 in wedge)
        _add_term(spec, t, "terms", i, by_wedge.setdefault(I, {}))
    form = DiffForm(spec, degree, {I: AlgebraElement(spec, terms)
                                   for I, terms in by_wedge.items()})
    if degree == 2:
        return SymplecticCandidate(np.array(u, dtype=np.int64), form)
    if any(c % spec.p for c in u):
        raise FormatError("u_class", "nonzero u-class on a non-2-form")
    if degree == 1:
        return ContactCandidate(form)
    return form


def automorphism_to_json(sigma: Automorphism) -> dict:
    return {"p": sigma.spec.p, "heights": list(sigma.spec.heights),
            "images": [element_to_json(y) for y in sigma.images]}


def automorphism_from_json(data: dict) -> Automorphism:
    spec = spec_from_json(data)
    images = _need(data, "images", list)
    if len(images) != spec.n:
        raise FormatError("images", f"expected {spec.n} images")
    ys = [element_from_json(spec, img, field=f"images[{i}]")
          for i, img in enumerate(images)]
    try:
        return Automorphism(spec, ys)
    except ValueError as ex:
        raise FormatError("images", str(ex))


def descriptor_to_json(desc: Counter) -> list:
    out = []
    for ind in sorted(desc, key=lambda d: (d.periodic, d.top, d.bottom,
                                           d.endo or ())):
        out.append({
            "label": {"kind": "periodic" if ind.periodic else "finite",
                      "top": list(ind.top), "bottom": list(ind.bottom)},
            "endo": list(ind.endo) if ind.endo is not None else None,
            "mult": desc[ind],
        })
    return out


def descriptor_from_json(data) -> Counter:
    out: Counter = Counter()
    if not isinstance(data, list):
        raise FormatError("descriptor", "expected a list")
    for i, rec in enumerate(data):
        field = f"descriptor[{i}]"
        if not isinstance(rec, dict):
            raise FormatError(field, "expected a record")
        label = _need(rec, "label", dict)
        kind = _need(label, "kind", str)
        if kind not in ("finite", "periodic"):
            raise FormatError(f"{field}.label.kind", "finite|periodic")
        top, bottom = (_int_tuple(label.get(key), f"{field}.label.{key}")
                       for key in ("top", "bottom"))
        endo = rec.get("endo")
        mult = rec.get("mult", 1)
        if not _ints([mult]) or mult < 1:
            raise FormatError(f"{field}.mult", "expected a positive integer")
        out[Indecomposable(kind == "periodic", top, bottom, None if endo is None
                           else _int_tuple(endo, f"{field}.endo"))] += mult
    return out


def invariants_to_json(inv) -> dict:
    if isinstance(inv, Counter):
        return {"kind": "type1", "descriptor": descriptor_to_json(inv)}
    if isinstance(inv, Type2Invariant):
        return {"kind": "type2", "invariants":
                {"k": inv.k, "l": inv.ell, "grid": [list(r) for r in inv.grid]}}
    if isinstance(inv, ContactInvariant):
        return {"kind": "contact", "invariants":
                {"k": inv.k, "grid": [list(r) for r in inv.grid]}}
    raise TypeError("unknown invariants")


def invariants_from_json(data: dict):
    kind = _need(data, "kind", str)
    if kind == "type1":
        return descriptor_from_json(_need(data, "descriptor", list))
    rec = _need(data, "invariants", dict)
    grid = tuple(_int_tuple(row, "grid") for row in _need(rec, "grid", list))
    if kind == "type2":
        return Type2Invariant(_need(rec, "k", int), _need(rec, "l", int), grid)
    if kind == "contact":
        return ContactInvariant(_need(rec, "k", int), grid)
    raise FormatError("kind", "type1|type2|contact")
