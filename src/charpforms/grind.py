"""The grinding pipeline for first-type classification objects.

The starting datum is a pair of antisymmetric forms (b nondegenerate, c
arbitrary) on two spaces carrying height flags matched by identity
identifications.  A state keeps cells of one kind on both sides, V (paired
by b) and W (paired by c), and a round runs three single-sided steps on
each side: split every cell into its flag factors, transferring the
partner's flag through the pairing (`_split`, the orthogonal step); split
every factor by that flag, moving the matched factor's flag through the
isomorphism (`_refine`, the iso step); and pair the new cells through the
parent pairing (`_pair`).  The new pairings and the new nu maps are read
on honest representatives, all from one routine (`_lift`): the naive lift
of a factor, less its part in the window's sub, solved against the space
the factor was read from (the orthogonal flag's space for a pairing, the
preimage under mu of the matched factor's sup for nu).  Rounds repeat
until every flag is trivial.  The primitive limit is a symplectic quiver
representation: nodes with nondegenerate pairings b, an involution tau, a
partial successor map sigma, and isomorphisms h solving b_{sigma P}(h u, v)
= c_{rho P}(nu u, nu v).  Its decomposition into indecomposables (chains,
hyperbolic chains, split and self-paired cycles) yields the descriptor: a
multiset of labelled pieces, with a prime-power endomorphism invariant on
the cycles, read off the elementary divisors of the whole cycle map (halved
on a self-paired cycle, see `self_paired_divisors`).
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import gfp
from .gfp import (Factor, FlagChain, companion, empty_space, ensure, eye,
                  full_space, is_invertible, make_flag, modp,
                  orthogonal_flag, pdeg, ppow, read_flag, zeros)


@dataclass
class Cell:
    dim: int
    alpha: int | None        # None only on the starting object (assigned at
                             # the first split as factor label + 1)
    flag: FlagChain
    partner: int | None      # None = tagged (c side: no pairing through here)


def _check_pairings(cells: dict, pairing: dict, p: int) -> None:
    """Every partnered cell pairs nondegenerately and antisymmetrically with
    its partner, and alternatingly with itself."""
    for x, cell in cells.items():
        if cell.partner is None:
            continue
        P = pairing[x]
        ensure(P.shape == (cell.dim, cells[cell.partner].dim),
               "pairing has the wrong shape")
        ensure(np.array_equal(pairing[cell.partner], modp(-P.T, p)),
               "pairing is not antisymmetric")
        if x <= cell.partner:           # -P^T, the partner's, is checked here
            ensure(is_invertible(P, p), "pairing is degenerate")
        if cell.partner == x:
            ensure(not np.any(np.diagonal(P)), "self-pairing is not alternating")


@dataclass
class AState:
    p: int
    parity: int              # 0: flags increasing, 1: decreasing
    v: dict                  # vid -> Cell paired by b
    w: dict                  # wid -> Cell paired by c
    b: dict                  # vid -> pairing matrix V_x times V_{partner}
    c: dict                  # wid -> pairing matrix (absent for tagged cells)
    nu: dict                 # (vid, label) -> (wid, label, matrix)

    def check(self):
        ensure(all(cell.partner is not None for cell in self.v.values()),
               "a b-side cell lost its partner")
        _check_pairings(self.v, self.b, self.p)
        _check_pairings(self.w, self.c, self.p)
        targets = {}
        for (vid, q), (wid, r, N) in self.nu.items():
            src = self.v[vid].flag.factor(q)
            dst = self.w[wid].flag.factor(r)
            ensure(N.shape == (dst.dim, src.dim) and is_invertible(N, self.p),
                   "nu is not an isomorphism of factors")
            ensure((wid, r) not in targets, "nu hits a w-side factor twice")
            targets[(wid, r)] = (vid, q)
        for wid, cell in self.w.items():
            for r in cell.flag.labels:
                ensure((wid, r) in targets, "nu misses a w-side factor")

    def is_primitive(self) -> bool:
        return all(c.flag.is_trivial() for c in self.v.values()) and \
            all(c.flag.is_trivial() for c in self.w.values())

    def total_dims(self):
        return (sum(c.dim for c in self.v.values()),
                sum(c.dim for c in self.w.values()))


@dataclass
class Piece:
    """One flag factor of an A-state cell, with the flag transferred into it."""
    alpha: int
    flag: FlagChain          # the transferred flag
    parent: int              # the cell
    label: int               # the factor's label in the cell's flag
    window: Factor           # that factor
    orth: FlagChain | None   # where flag was read from: the partner flag's
                             # orthogonal (None on a tagged cell)


@dataclass
class BState:
    r: dict                  # rid -> Piece of a b-side cell
    s: dict                  # sid -> Piece of a c-side cell
    mu: dict                 # rid -> (sid, matrix)
    a_state: AState
    rid_of: dict             # (vid, label) -> rid of that factor
    sid_of: dict             # (wid, label) -> sid of that factor


def height_spaces(heights) -> tuple:
    """The height flag on F_p^n: space q (0 <= q <= max height) is spanned
    by the coordinate vectors of the variables of height <= q."""
    n = len(heights)
    return tuple(eye(n)[[i for i in range(n) if heights[i] <= q]]
                 for q in range(max(heights) + 1))


def build_type1_object(p: int, heights, b, c) -> AState:
    """Package heights and the two bivector matrices as the starting object.

    b must be nondegenerate antisymmetric (the constant part of the form),
    c antisymmetric (the top-cohomology part); flags are the height flags on
    both sides, matched level-by-level by identity maps.
    """
    heights = tuple(int(m) for m in heights)
    n = len(heights)
    b = modp(b, p)
    c = modp(c, p)
    if not is_invertible(b, p):
        raise ValueError("constant part is degenerate")
    if not (gfp.is_alternating(b, p) and gfp.is_alternating(c, p)):
        raise ValueError("forms must be antisymmetric with zero diagonal")
    flag = FlagChain("inc", height_spaces(heights) + (full_space(n),), p)
    flag.check()
    st = AState(
        p=p, parity=0,
        v={0: Cell(n, None, flag, 0)},
        w={0: Cell(n, None, flag, 0)},
        b={0: b}, c={0: c}, nu={})
    for q in flag.labels:
        st.nu[(0, q)] = (0, q, eye(flag.factor(q).dim))
    # the starting c may be degenerate; skip the full check here
    return st


def _split(cells: dict, pairing: dict, direction: str, p: int):
    """Split every cell by its flag (the split step, for one side).

    A partnered cell reads, in each factor, the orthogonal of its partner's
    flag under its pairing; a tagged cell reads in each factor the one-step
    `direction` flag whose only factor, its top one, is the whole factor.
    Returns (pieces, piece_of).
    """
    pieces: dict = {}
    piece_of: dict = {}
    for x in sorted(cells):
        cell = cells[x]
        O = None if cell.partner is None else \
            orthogonal_flag(pairing[x], cells[cell.partner].flag, p)
        for q in cell.flag.labels:
            fac = cell.flag.factor(q)
            if O is None:
                S0 = empty_space(fac.dim) if direction == "inc" else full_space(fac.dim)
                K = make_flag(fac.dim, direction, [S0], p)
            else:
                K = read_flag(O, cell.flag, q)
            alpha = cell.alpha if cell.alpha is not None else q + 1
            piece_of[(x, q)] = len(pieces)
            pieces[len(pieces)] = Piece(alpha, K, x, q, fac, O)
    return pieces, piece_of


def grind_A_to_B(A: AState) -> BState:
    """Split every cell by its flag; transfer the partner flags through the
    pairings (w side: the radical lands in the top factor)."""
    direction = "dec" if A.parity == 0 else "inc"
    r_pieces, rid_of = _split(A.v, A.b, direction, A.p)
    s_pieces, sid_of = _split(A.w, A.c, direction, A.p)
    mu = {rid_of[(vid, q)]: (sid_of[(wid, r)], N)
          for (vid, q), (wid, r, N) in A.nu.items()}
    ensure(len(mu) == len(r_pieces) == len(s_pieces), "nu is not cell-bijective")
    return BState(r_pieces, s_pieces, mu, A, rid_of, sid_of)


def _lift(flag: FlagChain, t: int, window: Factor, source, p: int):
    """Honest representatives of factor t of a flag read in the window, as
    rows in the window's ambient space: the naive two-level lift
    flag.factor(t).section @ window.section, less its part in window.sub.

    A naive lift v lies in window.sup, and in span(source) + window.sub as
    factor t's sup is read from source; writing v = s + u with u in
    window.sub leaves s = v - u in span(source) ∩ window.sup.  Two such s
    differ by a vector of span(source) ∩ window.sub, which the induced maps
    send to 0: an honest partner lift pairs to 0 with it, and mu moves it
    into the sub of the target factor.
    """
    naive = modp(flag.factor(t).section @ window.section, p)
    return gfp.component_in(source, window.sub, naive, p)


def _refine(pieces: dict, links: dict):
    """Split every piece by its transferred flag (the refine step, for one
    side).  links[x] = (matrix, flag): each new cell carries the matched
    piece's flag moved by the matrix onto piece x and read in its factor
    (`read_flag`).  Partners are left to `_pair`.  Returns (cells,
    cell_of)."""
    cells: dict = {}
    cell_of: dict = {}
    for x in sorted(pieces):
        piece = pieces[x]
        N, other = links[x]
        for t in piece.flag.labels:
            G = read_flag(other, piece.flag, t, N)
            cell_of[(x, t)] = len(cells)
            cells[len(cells)] = Cell(G.ambient_dim, piece.alpha, G, None)
    return cells, cell_of


def _pair(cells: dict, cell_of: dict, pieces: dict, piece_of: dict,
          parents: dict, pairing: dict, p: int) -> dict:
    """Partners and pairings of the new cells (the pair step, for one side).

    Factor t of piece (X, q) pairs with factor q of piece (Xbar, t) through
    the parent pairing on X.  Cells of a tagged parent stay tagged, and so
    does a factor whose partner piece is missing: only the forced radical
    of a degenerate starting c lacks it, at the top label.
    Each cell's lift is computed once and read on both sides of its pair.
    Returns the new pairings.
    """
    lifts: dict = {}
    partner_of: dict = {}
    for (x, t), y in cell_of.items():
        piece = pieces[x]
        X, q = piece.parent, piece.label
        Xbar = parents[X].partner
        if Xbar is None:
            continue
        x2 = piece_of.get((Xbar, t))
        if x2 is None:
            ensure(t == len(piece.flag.spaces) - 2,
                   "missing partner piece below the top factor")
            continue
        y2 = cell_of.get((x2, q))
        ensure(y2 is not None, "partner piece lacks the matching factor")
        # factor t's sup is read from the orthogonal flag's space at t
        lifts[y] = _lift(piece.flag, t, piece.window, piece.orth.bounds(t)[1], p)
        partner_of[y] = (y2, X)
    out = {}
    for y, (y2, X) in partner_of.items():
        cells[y].partner = y2
        out[y] = modp(lifts[y] @ pairing[X] @ lifts[y2].T, p)
    return out


def grind_B_to_A(B: BState) -> AState:
    """Split by the transferred flags; move flags through the isomorphisms,
    induce the new pairings from the parents, and wire the new nu maps."""
    A = B.a_state
    p = A.p
    inverse = {rid: gfp.inverse(N, p) for rid, (sid, N) in B.mu.items()}
    v_cells, vid_of = _refine(
        B.r, {rid: (inverse[rid], B.s[sid].flag) for rid, (sid, N) in B.mu.items()})
    w_cells, wid_of = _refine(
        B.s, {sid: (N, B.r[rid].flag) for rid, (sid, N) in B.mu.items()})
    b_new = _pair(v_cells, vid_of, B.r, B.rid_of, A.v, A.b, p)
    c_new = _pair(w_cells, wid_of, B.s, B.sid_of, A.w, A.c, p)
    # nu: factor l of v-cell (rid, t) -> factor t of w-cell (mu(rid), l),
    # read on lifts into N^{-1} of the sup of factor l of mu(rid)'s flag
    nu_new: dict = {}
    for (rid, t), vid in vid_of.items():
        sid, N = B.mu[rid]
        for l in v_cells[vid].flag.labels:
            wid = wid_of[(sid, l)]
            fac_U = B.s[sid].flag.factor(l)
            lift = _lift(v_cells[vid].flag, l, B.r[rid].flag.factor(t),
                         fac_U.sup @ inverse[rid].T, p)
            M = w_cells[wid].flag.factor(t).project_vectors(
                fac_U.project_vectors(lift @ N.T))
            nu_new[(vid, l)] = (wid, t, M.T)
    out = AState(p, 1 - A.parity, v_cells, w_cells, b_new, c_new, nu_new)
    out.check()
    return out


def grind_round(A: AState) -> AState:
    return grind_B_to_A(grind_A_to_B(A))


def grind_to_primitive(A: AState) -> AState:
    """Alternate the two steps until every flag is trivial."""
    total = sum(A.total_dims())
    state = grind_round(A)  # the first round also normalizes the c-radical
    rounds = 1
    while not state.is_primitive():
        state = grind_round(state)
        rounds += 1
        ensure(rounds <= total + 2, "grinding did not terminate")
    ensure(state.total_dims() == A.total_dims(), "grinding lost dimensions")
    return state


# ---------------------------------------------------------------------------
# Quiver representation extraction.
# ---------------------------------------------------------------------------

@dataclass
class QuiverRep:
    p: int
    nodes: list
    dim: dict
    alpha: dict
    tau: dict
    b: dict                  # node -> pairing V_P x V_{tau P}
    sigma: dict              # node -> node or None
    h: dict                  # node -> matrix V_P -> V_{sigma P}


def extract_quiver_rep(A: AState) -> QuiverRep:
    """Read the symplectic quiver representation off a primitive state that
    `AState.check` has passed (`grind_B_to_A` checks every state it makes)."""
    ensure(A.is_primitive(), "state is not primitive")
    p = A.p
    nodes = sorted(vid for vid in A.v if A.v[vid].dim > 0)
    single = {}
    for vid in nodes:
        labels = A.v[vid].flag.labels
        ensure(len(labels) == 1, "primitive cell has several factors")
        single[vid] = labels[0]
    nu_target = {}
    nu_mat = {}
    for (vid, q), (wid, r, N) in A.nu.items():
        if A.v[vid].dim > 0:
            ensure(q == single[vid], "nu leaves the cell's factor")
            nu_target[vid] = wid
            nu_mat[vid] = N
    nu_inv = {wid: vid for vid, wid in nu_target.items()}
    ensure(len(nu_inv) == len(nodes), "nu is not a bijection on cells")
    tau = {vid: A.v[vid].partner for vid in nodes}
    sigma = {}
    h = {}
    for P in nodes:
        Z = nu_target[P]
        if A.w[Z].partner is None:
            sigma[P] = None
            continue
        Zbar = A.w[Z].partner
        tsP = nu_inv[Zbar]            # tau sigma P
        sigma[P] = tau[tsP]
        Bs = A.b[sigma[P]]            # V_{sigma P} x V_{tau sigma P}
        C = A.c[Z]                    # W_{rho P} x W_{rho tau sigma P}
        NP = nu_mat[P]
        Nts = nu_mat[tsP]
        h[P] = modp(gfp.inverse(Bs, p).T @ Nts.T @ C.T @ NP, p)
        # the defining identity: b_{sigma P}(h u, v) = c_{rho P}(nu u, nu v)
        ensure(np.array_equal(modp(h[P].T @ Bs, p), modp(NP.T @ C @ Nts, p)),
               "h fails its defining identity")
    rep = QuiverRep(p, nodes,
                    {P: A.v[P].dim for P in nodes},
                    {P: A.v[P].alpha for P in nodes},
                    tau, {P: A.b[P] for P in nodes}, sigma, h)
    check_rep_axioms(rep)
    return rep


def check_rep_axioms(rep: QuiverRep) -> None:
    """The literal pairing axioms of a symplectic representation."""
    p = rep.p
    for P in rep.nodes:
        BP = rep.b[P]
        ensure(np.array_equal(rep.b[rep.tau[P]], modp(-BP.T, p)),
               "b is not antisymmetric under tau")
        if rep.tau[P] == P:
            ensure(gfp.is_alternating(BP, p), "self-paired b is not alternating")
        sP = rep.sigma[P]
        if sP is None:
            continue
        tsP = rep.tau[sP]
        # sigma(tau sigma P) = tau P must be defined, with the adjoint law
        ensure(rep.sigma.get(tsP) == rep.tau[P], "sigma/tau structure broken")
        lhs = modp(rep.b[P] @ rep.h[tsP], p)
        rhs = modp(rep.h[P].T @ rep.b[sP], p)
        ensure(np.array_equal(lhs, rhs), "adjoint axiom failed")
        if sP == rep.tau[P]:
            ensure(gfp.is_alternating(rep.b[P] @ rep.h[P], p),
                   "self-cycle form is not alternating")


# ---------------------------------------------------------------------------
# Indecomposables and the descriptor.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Indecomposable:
    periodic: bool
    top: tuple
    bottom: tuple
    endo: tuple | None       # prime-power polynomial for cycles, else None
    kind: str = field(compare=False, default="")


def canonical_pair_label(periodic: bool, top, bottom):
    """Lexicographic least representative of the label class.

    Finite pairs: min over identity and the reverse-swap.  Periodic pairs:
    reduce to the least period, then min over simultaneous rotations of the
    pair and of its reverse-swap.
    """
    top = tuple(int(x) for x in top)
    bottom = tuple(int(x) for x in bottom)
    if len(top) != len(bottom) or not top:
        raise ValueError("label sequences must have equal positive length")
    if not periodic:
        return min((top, bottom), (bottom[::-1], top[::-1]))
    t = len(top)
    for d in range(1, t + 1):
        if t % d == 0 and all(top[i] == top[i % d] for i in range(t)) \
                and all(bottom[i] == bottom[i % d] for i in range(t)):
            top, bottom, t = top[:d], bottom[:d], d
            break
    cands = []
    swapped = (bottom[::-1], top[::-1])
    for rot in range(t):
        cands.append((top[rot:] + top[:rot], bottom[rot:] + bottom[:rot]))
        cands.append((swapped[0][rot:] + swapped[0][:rot],
                      swapped[1][rot:] + swapped[1][:rot]))
    return min(cands)


def self_paired_divisors(M, H, p) -> list:
    """Elementary divisors of a self-paired cycle: those of the cycle map H
    on an isotropic H-invariant half U, read off H alone.

    M = b_{P1} H_s (H_s the walk from P1 to tau P1) is nondegenerate, as b
    and every h are invertible, and the checks below require M and M H to be
    alternating.  Then H is
    self-adjoint for M: (M H)^T = -M H and M^T = -M give H^T M = M H, that
    is M(Hu, v) = M(u, Hv).  The paper splits V = U + U' into isotropic
    H-invariant halves.  As M is nondegenerate and both halves are
    isotropic, the pairing G = M|U x U' is invertible, and self-adjointness
    reads A^T G = G B for the matrices A of H|U and B of H|U'.  So H|U' is
    similar to the transpose of H|U, which is similar to H|U (a matrix is
    similar to its transpose: Taussky-Zassenhaus, Pacific J. Math. 1959).
    Hence H = H|U + H|U' as F_p[x]-modules: every divisor of H occurs an even
    number of times, and halving the multiplicities gives those of H|U.
    """
    ensure(gfp.is_alternating(M, p) and gfp.is_alternating(M @ H, p),
           "form is not h-alternating")
    divisors = gfp.elementary_divisors(H, p)        # sorted: equal ones adjacent
    ensure(divisors[::2] == divisors[1::2],
           "self-paired cycle divisor of odd multiplicity")
    return divisors[::2]


def _walk_map(rep: QuiverRep, start, steps):
    """The composite of the maps h along steps, from the node start."""
    H = eye(rep.dim[start])
    for P in steps:
        H = modp(rep.h[P] @ H, rep.p)
    return H


def _walk_sigma(rep: QuiverRep, start):
    out = [start]
    seen = {start}
    cur = start
    while rep.sigma[cur] is not None and rep.sigma[cur] not in seen:
        cur = rep.sigma[cur]
        out.append(cur)
        seen.add(cur)
    return out


def decompose_rep(rep: QuiverRep) -> Counter:
    """Split into tau-connected components and classify each."""
    p = rep.p
    adj = {P: set() for P in rep.nodes}
    for P in rep.nodes:
        adj[P].add(rep.tau[P])
        adj[rep.tau[P]].add(P)
        if rep.sigma[P] is not None:
            adj[P].add(rep.sigma[P])
            adj[rep.sigma[P]].add(P)
    seen = set()
    out: Counter = Counter()
    for P0 in rep.nodes:
        if P0 in seen:
            continue
        comp = set()
        stack = [P0]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        out.update(_classify_component(rep, comp))
    return out


def _classify_component(rep: QuiverRep, comp) -> Counter:
    p = rep.p
    incoming = {P for P in comp if rep.sigma.get(P) in comp and rep.sigma[P] is not None}
    has_in = {rep.sigma[P] for P in incoming}
    starts = sorted(P for P in comp if P not in has_in)
    out: Counter = Counter()
    if starts:
        P1 = starts[0]
        walk = _walk_sigma(rep, P1)
        tau_walk = [rep.tau[P] for P in walk]
        ensure(set(walk) | set(tau_walk) == comp, "chain walk missed nodes")
        top = tuple(rep.alpha[P] for P in walk)
        bottom = tuple(rep.alpha[P] for P in tau_walk)
        label = canonical_pair_label(False, top, bottom)
        dims = {rep.dim[P] for P in comp}
        ensure(len(dims) == 1, "chain dims are not constant")
        d = dims.pop()
        if rep.tau[P1] in walk:
            # self-paired: the walk covers the component and tau reflects it
            n = len(walk)
            ensure(all(rep.tau[walk[i]] == walk[n - 1 - i] for i in range(n)),
                   "tau does not reflect the chain")
            M = modp(rep.b[P1] @ _walk_map(rep, P1, walk[:-1]), p)
            ensure(gfp.is_alternating(M, p),
                   "self-paired chain form is not alternating")
            ensure(gfp.rank(M, p) == d and d % 2 == 0,
                   "self-paired chain form is degenerate")
            out[Indecomposable(False, *label, None, kind="chain-selfpaired")] += d // 2
        else:
            ensure(not (set(walk) & set(tau_walk)),
                   "open chain meets its tau image")
            out[Indecomposable(False, *label, None, kind="chain-open")] += d
        return out
    # cycle case
    P1 = min(comp, key=lambda P: (rep.alpha[P], P))
    walk = _walk_sigma(rep, P1)
    ensure(rep.sigma[walk[-1]] == P1, "cycle did not close")
    top = tuple(rep.alpha[P] for P in walk)
    bottom = tuple(rep.alpha[rep.tau[P]] for P in walk)
    label = canonical_pair_label(True, top, bottom)
    H = _walk_map(rep, P1, walk)
    if rep.tau[P1] in walk:
        Hs = _walk_map(rep, P1, walk[:walk.index(rep.tau[P1])])
        divisors = self_paired_divisors(modp(rep.b[P1] @ Hs, p), H, p)
        kind = "cycle-selfpaired"
    else:
        ensure(not (set(walk) & {rep.tau[P] for P in walk}),
               "split cycle meets its tau image")
        divisors = gfp.elementary_divisors(H, p)
        kind = "cycle-split"
    for qe in divisors:
        ensure(qe[0] != 0, "cycle endomorphism is singular")
        out[Indecomposable(True, *label, tuple(qe), kind=kind)] += 1
    return out


def descriptor_equal(d1: Counter, d2: Counter) -> bool:
    return d1 == d2


# ---------------------------------------------------------------------------
# Normal-shape matrices.
# ---------------------------------------------------------------------------

def synthesize_normal_matrices(ind: Indecomposable, p: int):
    """(heights, a, c) realizing one indecomposable over F_p.

    A label (top, bottom) of length t whose endomorphism has degree n (n = 1
    on a finite label) takes 2tn variables in 2t groups of n, with the
    heights of top + bottom; a = [[0, I], [-I, 0]], identity blocks of c pair
    group g with group t + g + 1 (the nilpotent Jordan pattern), and on a
    periodic label the companion matrix closes the cycle (group t - 1 with
    group t).
    """
    ensure(not ind.periodic or ind.endo is not None,
           "periodic indecomposable without endo")
    t = len(ind.top)
    n = pdeg(ind.endo) if ind.periodic else 1
    m = t * n
    heights = tuple(k for k in ind.top + ind.bottom for _ in range(n))
    a = zeros(2 * m, 2 * m)
    c = zeros(2 * m, 2 * m)
    a[:m, m:] = eye(m)
    for g in range(t - 1):
        c[g * n:(g + 1) * n, m + (g + 1) * n:m + (g + 2) * n] = eye(n)
    if ind.periodic:
        c[m - n:m, m:m + n] = companion(ind.endo, p).T
    return heights, modp(a - a.T, p), modp(c - c.T, p)


def synthesize_descriptor_matrices(desc: Counter, p: int):
    """Block-diagonal assembly over the descriptor multiset."""
    blocks = [synthesize_normal_matrices(ind, p)
              for ind in sorted(desc, key=_ind_sort_key) for _ in range(desc[ind])]
    heights = tuple(k for hs, _, _ in blocks for k in hs)
    N = len(heights)
    A = zeros(N, N)
    C = zeros(N, N)
    at = 0
    for _, a, c in blocks:
        d = a.shape[0]
        A[at:at + d, at:at + d] = a
        C[at:at + d, at:at + d] = c
        at += d
    return heights, A, C


def _ind_sort_key(ind: Indecomposable):
    return (ind.periodic, len(ind.top), ind.top, ind.bottom,
            ind.endo if ind.endo is not None else ())


def classify_type1_matrices(p: int, heights, b, c) -> Counter:
    """Full pipeline: object, grind, extract, decompose."""
    A = build_type1_object(p, heights, b, c)
    return decompose_rep(extract_quiver_rep(grind_to_primitive(A)))


def descriptor_weight_catalog(p: int, max_weight: int = 4, max_entry: int = 2,
                              max_endo_deg: int = 2):
    """All indecomposables with label weight and endo degree in the bounds."""
    out = []
    labels_fin = set()
    labels_per = set()
    for n in (1, 2):
        for top in itertools.product(range(1, max_entry + 1), repeat=n):
            for bottom in itertools.product(range(1, max_entry + 1), repeat=n):
                if sum(top) + sum(bottom) > max_weight:
                    continue
                labels_fin.add(canonical_pair_label(False, top, bottom))
                labels_per.add(canonical_pair_label(True, top, bottom))
    for top, bottom in sorted(labels_fin):
        out.append(Indecomposable(False, top, bottom, None, kind="chain"))
    endos = []
    for d in range(1, max_endo_deg + 1):
        for q in gfp.irreducibles(p, d):
            for e in range(1, max_endo_deg // d + 1):
                qe = ppow(q, e, p)
                if pdeg(qe) <= max_endo_deg and qe[0] != 0:
                    endos.append(qe)
    for top, bottom in sorted(labels_per):
        # only least-period representatives
        if canonical_pair_label(True, top, bottom) != (top, bottom):
            continue
        for qe in endos:
            out.append(Indecomposable(True, top, bottom, tuple(qe), kind="cycle"))
    return out
