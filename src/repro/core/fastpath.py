"""Bitset fast-path implementations of BR, RR1–RR5 and UB1–UB3.

This module is the word-parallel twin of :mod:`repro.core.branching`,
:mod:`repro.core.reductions` and :mod:`repro.core.bounds`: every rule has the
same pruning semantics as its set-based counterpart (so both backends return
identical optimal sizes), but operates on the packed
:class:`~repro.core.bitset_state.BitsetSearchState` representation.

Performance notes
-----------------
Pure-Python bit iteration is the dominant cost of a bitset kernel, so the
inner loops share two disciplines:

* candidate scans materialise the set bits once via
  :func:`~repro.core.bitset_state.bits_of` (a byte-table walk over
  ``int.to_bytes`` whose per-element cost is several times lower than
  repeated ``mask & -mask`` extraction) and then iterate the list at C speed;
* the engine extracts the candidate list and the instance-graph degrees once
  per node and shares them between UB3, UB1 and the branching rule — the
  state is not mutated between those steps.

:class:`BitsetEngine` is the branch-and-bound driver over that state.  It is
deliberately incumbent-*sharing*: the caller hands it a mutable ``incumbent``
list which the engine grows in place whenever it finds a larger k-defective
clique.  The degeneracy decomposition in :mod:`repro.core.decompose` exploits
this to thread one global lower bound through hundreds of ego subproblems, so
RR5/UB pruning discards most of them without branching.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from .bitset_state import BitsetSearchState, bits_of
from .config import SolverConfig
from .result import SearchStats

__all__ = [
    "bitset_rr1",
    "bitset_rr2",
    "bitset_rr3",
    "bitset_rr4",
    "bitset_rr5",
    "bitset_apply_reductions",
    "bitset_color_classes",
    "bitset_ub1_from_classes",
    "bitset_ub1_improved_coloring",
    "bitset_ub2_min_degree",
    "bitset_ub3_degree_sequence",
    "bitset_select_branching_vertex",
    "BitsetEngine",
]


# --------------------------------------------------------------------------- #
# Reduction rules
# --------------------------------------------------------------------------- #
def bitset_rr1(state: BitsetSearchState, stats: Optional[SearchStats] = None) -> int:
    """RR1 (excess-removal): drop candidates whose inclusion would exceed ``k`` missing edges."""
    budget = state.k - state.missing_in_solution
    non_nbrs = state.non_nbrs
    removed = 0
    for v in state.candidate_list():
        if non_nbrs[v] > budget:
            state.remove_candidate(v)
            removed += 1
    if stats is not None:
        stats.count_reduction("RR1", removed)
    return removed


def bitset_rr2(
    state: BitsetSearchState,
    stats: Optional[SearchStats] = None,
    root_degrees: Optional[List[int]] = None,
) -> int:
    """RR2 (high-degree): greedily move candidates adjacent to all but ≤ 1 vertex of ``g`` into ``S``.

    ``root_degrees`` (each vertex's degree in the engine's root instance)
    enables an exact integer-only pre-filter: qualification means
    ``deg_g(v) >= |V(g)| - 2``, and degrees only shrink, so
    ``root_degrees[v] < |V(g)| - 2`` proves non-qualification without
    touching a bitmask — which is what keeps RR2 cheap on sparse instances.
    """
    adj = state.adj
    non_nbrs = state.non_nbrs
    moved = 0
    progress = True
    while progress:
        progress = False
        verts = state.solution_bits | state.cand_bits
        budget = state.k - state.missing_in_solution
        min_degree = verts.bit_count() - 2 if root_degrees is not None else 0
        for v in state.candidate_list():
            if root_degrees is not None and root_degrees[v] < min_degree:
                continue
            # "adjacent to all but at most one vertex of g": the non-neighbour
            # mask of v inside g (minus v itself) has at most one bit set.
            if non_nbrs[v] <= budget:
                others = (verts & ~adj[v]) ^ (1 << v)
                if not (others & (others - 1)):
                    state.add_to_solution(v)
                    moved += 1
                    progress = True
                    # Moving a vertex into S changes the non-neighbour
                    # counters of the remaining candidates: restart the scan.
                    break
    if stats is not None and moved:
        stats.rr2_additions += moved
    return moved


def bitset_rr3(
    state: BitsetSearchState,
    lower_bound: int,
    stats: Optional[SearchStats] = None,
) -> int:
    """RR3 (degree-sequence-based): remove candidates that UB3 proves useless."""
    needed = lower_bound - len(state.solution)
    cand = state.cand_bits
    if needed < 0 or not cand:
        return 0
    non_nbrs = state.non_nbrs
    # Pack (cost, vertex) into one int so the sort needs no key function.
    shift = len(state.adj).bit_length()
    id_mask = (1 << shift) - 1
    ordered = [(non_nbrs[v] << shift) | v for v in state.candidate_list()]
    ordered.sort()
    if needed >= len(ordered):
        return 0
    prefix_cost = sum(code >> shift for code in ordered[:needed])
    threshold = state.slack() - prefix_cost
    removed = 0
    for code in ordered[needed:]:
        if (code >> shift) > threshold:
            state.remove_candidate(code & id_mask)
            removed += 1
    if stats is not None:
        stats.count_reduction("RR3", removed)
    return removed


def bitset_rr4(
    state: BitsetSearchState,
    lower_bound: int,
    stats: Optional[SearchStats] = None,
    root_degrees: Optional[List[int]] = None,
) -> int:
    """RR4 (second-order): pairwise bound with the last-added solution vertex.

    Semantically identical to :func:`repro.core.reductions.apply_rr4`; the
    neighbourhood intersections become single ``&``/popcount operations.

    ``root_degrees`` enables an exact integer-only shortcut: with
    ``cn <= min(nu_total, deg(v))`` and ``tail <= slack_v``, a candidate
    whose *relaxed* bound ``base + min(nu_total, root_degrees[v]) + slack_v``
    already fails the incumbent is removed without computing any
    intersection; the exact bound is only evaluated for the rest, so the
    removal set is unchanged.
    """
    u = state.last_added
    cand = state.cand_bits
    if u is None or not cand:
        return 0
    k = state.k
    adj = state.adj
    non_nbrs = state.non_nbrs
    missing = state.missing_in_solution
    u_nbrs_in_cand = adj[u] & cand
    nu_total = u_nbrs_in_cand.bit_count()
    total = cand.bit_count() - 1
    base = len(state.solution) + 1

    # Set membership beats a per-candidate wide right-shift of the bitmask.
    u_nbr_set = set(bits_of(u_nbrs_in_cand))
    to_remove: List[int] = []
    for v in state.candidate_list():
        missing_s_prime = missing + non_nbrs[v]
        if missing_s_prime > k:
            continue  # RR1 will remove it
        slack = k - missing_s_prime
        if root_degrees is not None:
            cn_cap = root_degrees[v]
            if nu_total < cn_cap:
                cn_cap = nu_total
            if base + cn_cap + slack <= lower_bound:
                to_remove.append(v)
                continue
        nu = nu_total - 1 if v in u_nbr_set else nu_total
        v_nbrs_in_cand = adj[v] & cand
        cn = (u_nbrs_in_cand & v_nbrs_in_cand).bit_count()
        dv = v_nbrs_in_cand.bit_count()
        xn = (nu - cn) + (dv - cn)
        cnon = total - cn - xn
        if slack > xn:
            tail = xn + min(cnon, (slack - xn) // 2)
            if tail > slack:
                tail = slack
        else:
            tail = slack
        if base + cn + tail <= lower_bound:
            to_remove.append(v)

    for v in to_remove:
        state.remove_candidate(v)
    if stats is not None:
        stats.count_reduction("RR4", len(to_remove))
    return len(to_remove)


def bitset_rr5(
    state: BitsetSearchState,
    lower_bound: int,
    stats: Optional[SearchStats] = None,
) -> Tuple[int, bool]:
    """RR5 (degree / core): remove candidates of degree < ``lb - k`` in the instance graph.

    Returns ``(removed, prune)``; ``prune`` is ``True`` when a *solution*
    vertex violates the degree requirement.
    """
    threshold = lower_bound - state.k
    if threshold <= 0:
        return 0, False
    adj = state.adj
    removed = 0
    progress = True
    while progress:
        progress = False
        verts = state.solution_bits | state.cand_bits
        for u in state.solution:
            if (adj[u] & verts).bit_count() < threshold:
                if stats is not None:
                    stats.count_reduction("RR5", removed)
                return removed, True
        for v in state.candidate_list():
            if (adj[v] & verts).bit_count() < threshold:
                state.remove_candidate(v)
                verts = state.solution_bits | state.cand_bits
                removed += 1
                progress = True
    if stats is not None:
        stats.count_reduction("RR5", removed)
    return removed, False


def bitset_apply_reductions(
    state: BitsetSearchState,
    config: SolverConfig,
    lower_bound: int,
    stats: Optional[SearchStats] = None,
    rr1_dirty: bool = True,
    rr5_dirty: bool = True,
    root_degrees: Optional[List[int]] = None,
) -> bool:
    """Exhaustively apply the enabled reduction rules (Line 4 of Algorithms 1/2).

    Reaches the same fixpoint as
    :func:`repro.core.reductions.apply_reductions` (RR1/RR2 always,
    RR3/RR4/RR5 when enabled, RR4 at most once per call) but re-runs each
    rule only when an event that can actually re-enable it has happened:

    * RR1 depends only on ``|\\bar{E}(S)|`` and the per-candidate
      ``|\\bar{N}_S(·)|`` counters, which change exclusively when RR2 moves a
      vertex into ``S`` — candidate *removals* never re-enable RR1;
    * RR2 additions keep the instance vertex set and all degrees unchanged,
      so they never re-enable RR5; every removal does;
    * RR3 removes only candidates outside its reserved cheapest prefix, so
      it is a self-fixpoint; RR2 additions and foreign removals re-enable it.

    The same invalidation logic extends across branch transitions, which is
    why the engine may pass ``rr1_dirty=False`` (the branch removed a
    candidate but left ``S`` and the incumbent untouched) or
    ``rr5_dirty=False`` (the branch moved one vertex into ``S``, changing no
    degree and no incumbent) for the *initial* state of the flags.

    This skips the full verification pass the dict/set backend pays at every
    node.  Returns ``True`` when RR5 proves the instance can be discarded.
    """
    use_rr5 = config.use_rr5
    use_rr3 = config.use_rr3
    rr4_pending = config.use_rr4
    rr2_dirty = True
    rr5_dirty = rr5_dirty and use_rr5
    rr3_dirty = use_rr3
    while rr1_dirty or rr2_dirty or rr5_dirty or rr3_dirty or rr4_pending:
        if rr1_dirty:
            rr1_dirty = False
            if bitset_rr1(state, stats):
                rr2_dirty = True
                rr5_dirty = use_rr5
                rr3_dirty = use_rr3
        if rr2_dirty:
            rr2_dirty = False
            if bitset_rr2(state, stats, root_degrees=root_degrees):
                rr1_dirty = True
                rr3_dirty = use_rr3
        if rr5_dirty:
            rr5_dirty = False
            removed, prune = bitset_rr5(state, lower_bound, stats)
            if prune:
                return True
            if removed:
                rr2_dirty = True
                rr3_dirty = use_rr3
        if rr3_dirty:
            rr3_dirty = False
            if bitset_rr3(state, lower_bound, stats):
                rr2_dirty = True
                rr5_dirty = use_rr5
        if rr4_pending:
            rr4_pending = False
            if bitset_rr4(state, lower_bound, stats, root_degrees=root_degrees):
                rr2_dirty = True
                rr5_dirty = use_rr5
                rr3_dirty = use_rr3
    return False

# --------------------------------------------------------------------------- #
# Upper bounds
# --------------------------------------------------------------------------- #
def bitset_color_classes(
    state: BitsetSearchState,
    cand_list: Optional[List[int]] = None,
    degrees: Optional[List[int]] = None,
) -> List[int]:
    """Greedily colour the candidates into independent sets, returned as bitmasks.

    When ``degrees`` is given, candidates are coloured in non-increasing
    instance-degree order (ties towards smaller ids) — the same order as the
    set backend, which keeps UB1 equally tight.  Without it the coloring runs
    in ``cand_list`` order (default: ascending bit order), which is still a
    valid independent-set partition, just potentially looser.
    """
    adj = state.adj
    if cand_list is None:
        cand_list = bits_of(state.cand_bits)
    if degrees is not None:
        # Pack (n - degree, vertex) into one int: a plain ascending sort
        # yields non-increasing degree with ties towards smaller ids.
        n = len(adj)
        shift = n.bit_length()
        id_mask = (1 << shift) - 1
        order = [((n - degrees[v]) << shift) | v for v in cand_list]
        order.sort()
        cand_list = [code & id_mask for code in order]

    class_masks: List[int] = []
    for v in cand_list:
        adjacency = adj[v]
        for i, cmask in enumerate(class_masks):
            if not (cmask & adjacency):
                class_masks[i] = cmask | (1 << v)
                break
        else:
            class_masks.append(1 << v)
    return class_masks


def bitset_ub1_from_classes(state: BitsetSearchState, class_masks: Sequence[int]) -> int:
    """Evaluate UB1 from pre-computed colour-class bitmasks.

    ``class_masks`` may be stale — each class is intersected with the
    current candidate set, so any partition whose union covers the
    candidates yields a valid bound (vertex deletions only shrink
    independent sets).

    Every selectable weight lies in ``0..budget``, so a counting sort
    replaces the global sort; within a class the weight ``cost + j`` is
    strictly increasing, allowing the early break.
    """
    budget = state.slack()
    if budget < 0:
        return len(state.solution)
    non_nbrs = state.non_nbrs
    cand = state.cand_bits
    counts = [0] * (budget + 1)
    for cmask in class_masks:
        members = cmask & cand
        if not members:
            continue
        costs = sorted(non_nbrs[v] for v in bits_of(members))
        for j, cost in enumerate(costs):
            w = cost + j
            if w > budget:
                break
            counts[w] += 1
    count = counts[0]
    for w in range(1, budget + 1):
        avail = counts[w]
        if not avail:
            continue
        affordable = budget // w
        if affordable < avail:
            count += affordable
            break
        budget -= avail * w
        count += avail
    return len(state.solution) + count


def bitset_ub1_improved_coloring(
    state: BitsetSearchState,
    cand_list: Optional[List[int]] = None,
    degrees: Optional[List[int]] = None,
) -> int:
    """The paper's improved coloring-based upper bound **UB1** on bitmasks.

    Colour classes are bitmasks; the "is this class independent from v"
    test of the greedy coloring is a single ``&`` against ``adj[v]``.
    Composition of :func:`bitset_color_classes` and
    :func:`bitset_ub1_from_classes`.
    """
    if state.slack() < 0:
        return len(state.solution)
    return bitset_ub1_from_classes(state, bitset_color_classes(state, cand_list, degrees))


def bitset_ub2_min_degree(state: BitsetSearchState) -> int:
    """The min-degree bound **UB2**: ``min_{u ∈ S} d_g(u) + 1 + k``.

    Computes the |S| solution-vertex degrees itself: the engine's shared
    ``degrees`` array covers candidates only, so reusing it here would be
    incorrect (and UB2 runs before that scan anyway).
    """
    if not state.solution:
        return state.graph_size
    adj = state.adj
    verts = state.solution_bits | state.cand_bits
    return min((adj[u] & verts).bit_count() for u in state.solution) + 1 + state.k


def bitset_ub3_degree_sequence(
    state: BitsetSearchState, cand_list: Optional[List[int]] = None
) -> int:
    """The degree-sequence bound **UB3** of KDBB.

    Equivalent to the sort-based set implementation, but because every
    selectable cost lies in ``0..slack`` the greedy prefix is computed by
    counting sort in O(|candidates| + k).
    """
    budget = state.slack()
    if budget < 0:
        return len(state.solution)
    non_nbrs = state.non_nbrs
    if cand_list is None:
        cand_list = bits_of(state.cand_bits)
    counts = [0] * (budget + 1)
    for v in cand_list:
        c = non_nbrs[v]
        if c <= budget:
            counts[c] += 1
    count = counts[0]
    for c in range(1, budget + 1):
        avail = counts[c]
        if not avail:
            continue
        affordable = budget // c
        if affordable < avail:
            count += affordable
            break
        budget -= avail * c
        count += avail
    return len(state.solution) + count


# --------------------------------------------------------------------------- #
# Branching rule BR
# --------------------------------------------------------------------------- #
def bitset_select_branching_vertex(
    state: BitsetSearchState,
    degrees: Optional[List[int]] = None,
    cand_list: Optional[List[int]] = None,
) -> Optional[int]:
    """Branching rule BR on bitmasks (same preference order as the set backend).

    Prefers a candidate with at least one non-neighbour in ``S`` — fewest
    non-neighbours first, ties towards highest degree — and falls back to a
    maximum-degree candidate when every candidate is fully adjacent to ``S``.
    """
    if cand_list is None:
        cand_list = bits_of(state.cand_bits)
    if not cand_list:
        return None
    adj = state.adj
    verts = state.solution_bits | state.cand_bits
    non_nbrs = state.non_nbrs

    best_vertex = -1
    best_count = -1
    best_degree = -1
    fallback_vertex = -1
    fallback_degree = -1
    for v in cand_list:
        count = non_nbrs[v]
        if count == 0:
            if best_vertex < 0:
                degree = degrees[v] if degrees is not None else (adj[v] & verts).bit_count()
                if degree > fallback_degree:
                    fallback_degree = degree
                    fallback_vertex = v
            continue
        if best_count == -1 or count <= best_count:
            degree = degrees[v] if degrees is not None else (adj[v] & verts).bit_count()
            if count < best_count or best_count == -1 or degree > best_degree:
                best_count = count
                best_degree = degree
                best_vertex = v
    if best_vertex >= 0:
        return best_vertex
    return fallback_vertex


# --------------------------------------------------------------------------- #
# Branch-and-bound engine
# --------------------------------------------------------------------------- #
class BitsetEngine:
    """Branch-and-bound over :class:`BitsetSearchState` with a shared incumbent.

    Each node's include branch works on a copy of the state and the exclude
    branch mutates the state in place, so a child never has to undo its
    parent's changes.

    Parameters
    ----------
    config:
        Feature flags (budgets are enforced via ``check_budget``, not here).
    stats:
        Counters updated in place (shared with the owning solver).
    check_budget:
        Zero-argument callable invoked once per node; raises
        :class:`~repro.exceptions.BudgetExceededError` to interrupt.
    incumbent:
        Mutable list of vertex ids (in the *caller's* id space) holding the
        best solution known so far.  Grown in place on every improvement, so
        several engine runs (e.g. the decomposition's subproblems) share one
        lower bound.
    to_global:
        Optional mapping from this engine's local vertex ids to the caller's
        id space; identity when ``None``.
    """

    def __init__(
        self,
        config: SolverConfig,
        stats: SearchStats,
        check_budget: Callable[[], None],
        incumbent: List[int],
        to_global: Optional[Sequence[int]] = None,
    ) -> None:
        self.config = config
        self.stats = stats
        self.check_budget = check_budget
        self.incumbent = incumbent
        self.to_global = to_global

    def run(
        self,
        adj: Sequence[int],
        vertices_bits: int,
        k: int,
        forced: Optional[int] = None,
    ) -> None:
        """Solve one instance, improving ``self.incumbent`` in place.

        Parameters
        ----------
        adj:
            Packed adjacency rows over local vertex ids.
        vertices_bits:
            Bitmask of the instance's vertices.
        k:
            Defectiveness parameter.
        forced:
            Optional local vertex id committed to ``S`` before branching
            (the decomposition forces each subproblem's anchor vertex).

        Notes
        -----
        The search is driven by an explicit stack rather than recursion:
        instances are popped and processed in exactly the recursive DFS
        order (node, then its include subtree, then its exclude subtree),
        so arbitrarily deep branches need no ``sys.setrecursionlimit``
        fiddling — which matters inside :mod:`multiprocessing` workers —
        and the per-node budget poll happens at the single loop head.
        """
        state = BitsetSearchState.initial(adj, k, vertices_bits)
        if forced is not None:
            state.add_to_solution(forced)
        # Degrees in the root instance, computed once per run: degrees only
        # shrink down the tree, so these upper bounds power the exact
        # integer-only pre-filters of RR2 and RR4 at every node.
        root_degrees = [(row & vertices_bits).bit_count() for row in adj]
        config = self.config
        stats = self.stats
        check_budget = self.check_budget
        # Stack frames: (state, depth, rr1_dirty, rr5_dirty).  Pushing the
        # exclude branch below the include branch reproduces the recursive
        # visit order.
        stack: List[Tuple[BitsetSearchState, int, bool, bool]] = [(state, 1, True, True)]
        while stack:
            state, depth, rr1_dirty, rr5_dirty = stack.pop()
            check_budget()
            stats.nodes += 1
            if depth > stats.max_depth:
                stats.max_depth = depth

            # Line 4: reduction rules.  The dirty flags encode how this state
            # was reached (see bitset_apply_reductions): an exclude branch
            # cannot re-enable RR1, an include branch with an unchanged
            # incumbent cannot re-enable RR5.
            lb_used = len(self.incumbent)
            if bitset_apply_reductions(
                state, config, lower_bound=lb_used, stats=stats,
                rr1_dirty=rr1_dirty, rr5_dirty=rr5_dirty, root_degrees=root_degrees,
            ):
                continue

            # Line 5: if the whole instance graph is a k-defective clique, record it.
            if state.is_defective_clique():
                stats.leaves += 1
                self._record(state.graph_vertices())
                continue

            # Upper-bound pruning, cheapest bound first (no-op for kDC-t).
            # UB2 needs no candidate scan at all; UB3 and UB1 reuse one
            # materialised candidate list; the degree scan is deferred past
            # all three bounds.
            incumbent = len(self.incumbent)
            if config.use_ub2 and bitset_ub2_min_degree(state) <= incumbent:
                stats.prunes_by_bound += 1
                continue
            cand_list = state.candidate_list()
            if config.use_ub3 and bitset_ub3_degree_sequence(state, cand_list) <= incumbent:
                stats.prunes_by_bound += 1
                continue

            # One shared degree scan for UB1's coloring order and the
            # branching rule (the state is not mutated in between).
            # Recomputing the order from *current* instance degrees keeps UB1
            # as tight as the set backend's; a static order was measured to
            # cost far more nodes than the per-node sort saves.
            degrees = self._degree_scan(state, cand_list)

            if config.use_ub1 and bitset_ub1_improved_coloring(state, cand_list, degrees) <= incumbent:
                stats.prunes_by_bound += 1
                continue

            # The partial solution S itself is a valid k-defective clique.
            self._record(state.solution)

            # Line 6: branching vertex via rule BR.
            branching_vertex = bitset_select_branching_vertex(state, degrees, cand_list)
            if branching_vertex is None:
                continue

            # Line 7/8: the include branch copies the state, the exclude
            # branch mutates it in place (it is not needed otherwise).  The
            # include branch changes no degree, so RR5 stays at its fixpoint
            # unless the incumbent moved during this node; the exclude branch
            # leaves S untouched, so RR1 (incumbent-independent) stays clean.
            left = state.copy()
            left.add_to_solution(branching_vertex)
            state.remove_candidate(branching_vertex)
            stack.append((state, depth + 1, False, True))
            stack.append((left, depth + 1, True, len(self.incumbent) != lb_used))

    @staticmethod
    def _degree_scan(state: BitsetSearchState, cand_list: List[int]) -> List[int]:
        """Instance-graph degrees of the candidates (shared by UB1's coloring order and BR)."""
        adj_rows = state.adj
        verts = state.solution_bits | state.cand_bits
        degrees = [0] * len(adj_rows)
        for v in cand_list:
            degrees[v] = (adj_rows[v] & verts).bit_count()
        return degrees

    # -------------------------------------------------------------- #
    def _record(self, vertices: List[int]) -> None:
        if len(vertices) > len(self.incumbent):
            if self.to_global is not None:
                vertices = [self.to_global[v] for v in vertices]
            self.incumbent[:] = vertices
            self.stats.improvements += 1
