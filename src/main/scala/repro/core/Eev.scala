package repro.core

import scala.collection.mutable

/** Counters from the most recent [[Eev.apply]] run (single-threaded; for diagnostics
  * and the bench suites' visibility into where verification effort goes).
  */
final case class EevStats(gtEdges: Int, preVerified: Int, treeWitnessHits: Int,
                          dfsSearches: Int, escalations: Int, negatives: Int)

/** Escaped Edges Verification (paper Algorithms 6 & 7).
  *
  * Generates the exact tspG from the tight upper-bound graph `Gt` without enumerating
  * all temporal simple paths:
  *
  *   1. Pre-verification — every `Gt` edge out of `s` or into `t` is in tspG (Lemma 2),
  *      and every edge `e(u, v, τ)` with an `s→u` edge before `τ` or a `v→t` edge after
  *      `τ` in `Gt` is in tspG (Lemma 10).
  *   2. Each remaining edge (in non-descending temporal order) that passes
  *      `A(u) < τ < D(v)` on `Gt` looks for one temporal simple path `s ⇝ t` through
  *      it. Every edge on a found path, plus every `Gt` edge that can shortcut it while
  *      keeping timestamps strictly ascending (Lemma 11, generalized), is confirmed in
  *      one batch.
  *   3. Edges without such a path are dropped.
  *
  * A witness is looked for in up to three steps:
  *
  *   - *Tree witness*: the earliest-arrival parent path `s ⇝ u` and the latest-departure
  *     parent path `v ⇝ t` are temporal simple paths; if disjoint, they stitch into one.
  *   - *Stage 1*: Algorithm 7's bidirectional DFS from the seed's endpoints — backward
  *     `u ⇝ s` gated by `ts > A(x)`, forward `v ⇝ t` gated by `ts < D(x)` — under a
  *     node-expansion budget.
  *   - *Stage 2*, only when stage 1 runs out of budget, and unbudgeted: the same DFS
  *     anchored at `s` and `t` — forward `s ⇝ u` gated by the latest departure towards
  *     `u` before `τ`, backward `t ⇝ v` gated by the earliest arrival from `v` after
  *     `τ`. Every branch can still complete its half, and the branching is that around
  *     `s` and `t` rather than around the (often hub) seed endpoints.
  *
  * Both stages run one engine, [[WitnessSearch]], which adds two exactness-preserving
  * prunings to Algorithm 7 (conflict-directed backjumping, Prosser 1993):
  *
  *   - *Cross-conflict abort*: when the second half exhausts without ever being blocked
  *     by a vertex of the first half, its failure does not depend on the first half's
  *     choices, so the whole search stops.
  *   - *Conflict cache*: otherwise the first-half vertices it was blocked on are cached;
  *     while the first half still owns a cached set, the second half is skipped.
  *
  * The half over the longer time span runs first (on a tie, the forward half): it has
  * many completions, and the shorter, terminal half is cheap to retry and caches well.
  * Searching inside `Gt` is complete because every temporal simple path `s ⇝ t` lies
  * entirely within `tspG ⊆ Gt`.
  */
object Eev {

  /** Stage-1 node-expansion budget before a seed escalates to stage 2. */
  private val SearchBudget: Long = 10000L

  /** Stats of the most recent run (not thread-safe; diagnostics only). */
  @volatile var lastStats: EevStats = EevStats(0, 0, 0, 0, 0, 0)

  def apply(gt: TemporalGraph, q: TspgQuery): Subgraph = apply(gt, q, SearchBudget)

  /** [[apply]] with an explicit stage-1 budget (tests force escalation with 1). */
  private[core] def apply(gt: TemporalGraph, q: TspgQuery, budget: Long): Subgraph = {
    val verified = mutable.HashSet.empty[TEdge]
    val vOut     = mutable.Set.empty[Int]
    val eOut     = mutable.Set.empty[TEdge]

    def confirm(e: TEdge): Unit =
      if (verified.add(e)) { vOut += e.src; vOut += e.dst; eOut += e }

    // --- Pre-verification (Algorithm 6 lines 2–5) ------------------------------------
    // sMin(x): earliest s→x edge in Gt; tMax(x): latest x→t edge in Gt (for Lemma 10).
    val sMin = mutable.HashMap.empty[Int, Int]
    val tMax = mutable.HashMap.empty[Int, Int]
    gt.edges.foreach { e =>
      if (e.src == q.s) sMin.updateWith(e.dst)(o => Some(o.fold(e.ts)(math.min(_, e.ts))))
      if (e.dst == q.t) tMax.updateWith(e.src)(o => Some(o.fold(e.ts)(math.max(_, e.ts))))
    }
    gt.edges.foreach { e =>
      if (e.src == q.s || e.dst == q.t) confirm(e) // Lemma 2
      else if (sMin.get(e.src).exists(_ < e.ts) || tMax.get(e.dst).exists(_ > e.ts))
        confirm(e) // Lemma 10
    }

    // --- Verification loop (lines 6–19); gt.edges is already ts-ascending ------------
    val (arrGt, arrPar) =
      PolarityTime.earliestArrivalsWithParents(gt, q.s, q.tauB, q.tauE, q.t, -1)
    val (depGt, depPar) =
      PolarityTime.latestDeparturesWithParents(gt, q.t, q.tauB, q.tauE, q.s, -1)

    val preVerified = verified.size
    var treeHits    = 0
    var searches    = 0
    var escalations = 0
    var negatives   = 0
    gt.edges.foreach { e =>
      if (!verified.contains(e)) {
        // Seed feasibility on Gt itself: a witness prefix/suffix lies in tspG ⊆ Gt,
        // so A(u) < τ < D(v) *recomputed on Gt* is necessary — edges failing it are
        // negative without any search.
        val feasible =
          (e.src == q.s || arrGt(e.src) < e.ts) && (e.dst == q.t || depGt(e.dst) > e.ts)
        if (!feasible) negatives += 1
        else treeWitness(q, e, arrPar, depPar) match {
          case Some(path) =>
            treeHits += 1
            confirmBatch(gt, q, path, confirm)
          case None =>
            searches += 1
            val (res, escalated) = search(gt, q, e, arrGt, depGt, budget)
            if (escalated) escalations += 1
            res match {
              case Some(path) => confirmBatch(gt, q, path, confirm)
              case None       => negatives += 1 // on no temporal simple path: excluded
            }
        }
      }
    }
    lastStats = EevStats(gt.m, preVerified, treeHits, searches, escalations, negatives)
    Subgraph(vOut.toSet, eOut.toSet)
  }

  /** Batch confirmation along a found witness path — the paper's Lemma 11,
    * generalized from parallel edges to *shortcut* edges: for path vertices
    * `u_0, …, u_l` (edge `k` enters `u_k` at `ts_k`; `ts_0 = τb − 1`,
    * `ts_{l+1} = τe + 1`), any `Gt` edge `e(u_i, u_j, τ)` with `i < j` and
    * `ts_i < τ < ts_{j+1}` closes another temporal simple path (prefix to `u_i`,
    * the edge, suffix from `u_j` — a vertex subset of the witness, timestamps still
    * strictly ascending), so it is confirmed without a search. Lemma 11's parallel
    * edges are the `j = i + 1` case; edges touching `s`/`t` reproduce Lemmas 2/10.
    */
  private def confirmBatch(gt: TemporalGraph, q: TspgQuery, path: IndexedSeq[TEdge],
                           confirm: TEdge => Unit): Unit = {
    val l = path.length
    // Vertex u_k and its entering timestamp ts_k.
    val pos = mutable.HashMap.empty[Int, Int]
    val enterTs = new Array[Int](l + 2)
    pos(path(0).src) = 0
    enterTs(0) = q.tauB - 1
    var k = 1
    while (k <= l) { pos(path(k - 1).dst) = k; enterTs(k) = path(k - 1).ts; k += 1 }
    enterTs(l + 1) = q.tauE + 1
    var i = 0
    while (i < l) {
      val ui  = if (i == 0) path(0).src else path(i - 1).dst
      val out = gt.outEdges(ui) // ascending ts
      var x   = out.length - 1
      while (x >= 0 && out(x).ts > enterTs(i)) {
        val cand = out(x)
        pos.get(cand.dst) match {
          case Some(j) if j > i && cand.ts < enterTs(j + 1) => confirm(cand)
          case _                                            => ()
        }
        x -= 1
      }
      i += 1
    }
  }

  /** Tree-witness shortcut: stitch the earliest-arrival parent path `s ⇝ u` to the
    * latest-departure parent path `v ⇝ t`. Both are temporal simple paths by
    * construction (labels strictly ascend along them) with `A(u) < τ < D(v)`, so if
    * they are vertex-disjoint (and avoid the opposite seed endpoint) the concatenation
    * is a witness — no search needed. Conflicting tree paths return None.
    */
  private def treeWitness(q: TspgQuery, e: TEdge,
                          arrPar: Array[TEdge], depPar: Array[TEdge]): Option[IndexedSeq[TEdge]] = {
    val used = mutable.Set(e.src, e.dst)
    val back = mutable.ArrayBuffer.empty[TEdge]
    var x = e.src
    while (x != q.s) {
      val pe = arrPar(x)
      if (pe == null) return None
      if (pe.src != q.s && !used.add(pe.src)) return None
      back += pe
      x = pe.src
    }
    val fwd = mutable.ArrayBuffer.empty[TEdge]
    var y = e.dst
    while (y != q.t) {
      val pe = depPar(y)
      if (pe == null) return None
      if (pe.dst != q.t && !used.add(pe.dst)) return None
      fwd += pe
      y = pe.dst
    }
    Some((back.reverseIterator ++ Iterator.single(e) ++ fwd.iterator).toIndexedSeq)
  }

  /** Bidirectional DFS (paper Algorithm 7) with escalation. Returns one temporal simple
    * path `s ⇝ t` through `seed`, as its full edge sequence, or None.
    */
  def biDirSearch(gt: TemporalGraph, q: TspgQuery, seed: TEdge): Option[IndexedSeq[TEdge]] =
    search(gt, q, seed, PolarityTime.arrivals(gt, q), PolarityTime.departures(gt, q),
      SearchBudget)._1

  /** Stage 1 under `budget`, then stage 2 if it ran out: `(witness, escalated)`. */
  private def search(gt: TemporalGraph, q: TspgQuery, seed: TEdge, arrGt: Array[Int],
                     depGt: Array[Int], budget: Long): (Option[IndexedSeq[TEdge]], Boolean) = {
    val first = seedAnchored(gt, q, seed, arrGt, depGt, budget)
    val found = first.run()
    if (found.isDefined || !first.exhausted) (found, false)
    else (endAnchored(gt, q, seed).run(), true)
  }

  /** Stage 1: halves start at the seed's endpoints and are gated by `A`/`D` on `Gt`
    * (`A(s) = τb − 1` and `D(t) = τe + 1` admit the goals; `A(t)` and `D(s)` exclude
    * the opposite anchor).
    */
  private[core] def seedAnchored(gt: TemporalGraph, q: TspgQuery, seed: TEdge,
                                 arrGt: Array[Int], depGt: Array[Int],
                                 budget: Long): WitnessSearch =
    new WitnessSearch(gt, q, seed, budget,
      pre = new Half(forward = false, seed.src, seed.ts, q.s, arrGt),
      suf = new Half(forward = true, seed.dst, seed.ts, q.t, depGt))

  /** Stage 2: halves start at `s` and `t`, gated by per-seed reachability-to-seed
    * times. Their goal entries, `depToU(u) = τ` and `arrFromV(v) = τ`, encode the
    * seed-time condition; avoiding `{t, v}` and `{s, u}` keeps the halves simple.
    */
  private[core] def endAnchored(gt: TemporalGraph, q: TspgQuery, seed: TEdge): WitnessSearch = {
    val depToU = PolarityTime.latestDepartures(gt, seed.src, q.tauB, seed.ts - 1, q.t, seed.dst)
    val arrFromV = PolarityTime.earliestArrivals(gt, seed.dst, seed.ts + 1, q.tauE, q.s, seed.src)
    new WitnessSearch(gt, q, seed, Long.MaxValue,
      pre = new Half(forward = true, q.s, q.tauB - 1, seed.src, depToU),
      suf = new Half(forward = false, q.t, q.tauE + 1, seed.dst, arrFromV))
  }

  /** One half of a witness: a DFS from `from` (entered at `fromTs`) to `goal`, along
    * out-edges in non-ascending ts order (`forward`) or in-edges in non-descending
    * order. An edge into `x` is taken only if `ts < gate(x)` (forward) or
    * `ts > gate(x)` (backward); the goal is reached through the same gate.
    */
  private[core] final class Half(val forward: Boolean, val from: Int, val fromTs: Int,
                                 val goal: Int, gate: Array[Int]) {
    val own  = mutable.BitSet.empty             // interior vertices of this half
    val path = mutable.ArrayBuffer.empty[TEdge] // edges in search order, from `from`

    def admits(x: Int, ts: Int): Boolean = if (forward) ts < gate(x) else ts > gate(x)
    def span: Long = math.abs(gate(goal).toLong - fromTs)
    def inOrder: Iterator[TEdge] = if (forward) path.iterator else path.reverseIterator
  }

  /** Witness search for one seed edge: the prefix half `pre` (`s ⇝ u`, in either
    * direction) and the suffix half `suf` (`v ⇝ t`) share the taken vertices, the step
    * budget, the cross-conflict abort and the conflict cache.
    */
  private[core] final class WitnessSearch(gt: TemporalGraph, q: TspgQuery, seed: TEdge,
                                          budget: Long, pre: Half, suf: Half) {
    private var steps = 0L
    private var abort = false // cross-conflict abort or budget exhaustion
    /** First-half vertices the current terminal run was blocked on. */
    private var crossSet = mutable.BitSet.empty
    /** Past terminal failures, each as the first-half vertex set it was blocked on.
      * Blocking *more* vertices only shrinks the terminal search tree, so while a
      * cached set is still wholly owned by the first half the terminal run must fail.
      */
    private val conflictCache = mutable.ArrayBuffer.empty[mutable.BitSet]
    var exhausted = false

    private def taken(x: Int): Boolean =
      x == seed.src || x == seed.dst || x == pre.from || x == suf.from ||
        pre.own.contains(x) || suf.own.contains(x)

    /** DFS of half `h` from `cur` (entered at `curTs`); `cont` continues once `h`
      * reaches its goal. `terminal`: `h` is the second half, so its blocks on the other
      * half's vertices are recorded in `crossSet`.
      */
    private def dfs(h: Half, cur: Int, curTs: Int, terminal: Boolean,
                    cont: () => Boolean): Boolean = {
      if (cur == h.goal) return cont()
      val other = if (h eq pre) suf else pre
      val adj   = if (h.forward) gt.outEdges(cur) else gt.inEdges(cur) // ascending ts
      var i     = if (h.forward) adj.length - 1 else 0
      while (i >= 0 && i < adj.length && !abort) {
        val e = adj(i)
        if (if (h.forward) e.ts <= curTs else e.ts >= curTs) return false
        steps += 1
        if (steps > budget) { exhausted = true; abort = true }
        val x = if (h.forward) e.dst else e.src
        if (h.admits(x, e.ts)) {
          if (x == h.goal) {
            h.path += e
            if (cont()) return true
            h.path.remove(h.path.length - 1)
          } else if (taken(x)) {
            if (terminal && other.own.contains(x)) crossSet += x
          } else {
            h.own += x
            h.path += e
            if (dfs(h, x, e.ts, terminal, cont)) return true
            h.own -= x
            h.path.remove(h.path.length - 1)
          }
        }
        i += (if (h.forward) -1 else 1)
      }
      false
    }

    /** Wrap the terminal half: skip it when a cached conflict set is still owned by the
      * first half; abort everything when it fails without touching the first half.
      */
    private def terminalRun(firstOwn: mutable.BitSet, body: => Boolean): Boolean = {
      if (conflictCache.exists(_.subsetOf(firstOwn))) return false
      crossSet = mutable.BitSet.empty
      val ok = body
      if (!ok && !abort) {
        if (crossSet.isEmpty) abort = true
        else if (conflictCache.size < 32) conflictCache += crossSet
      }
      ok
    }

    /** The full witness `s ⇝ u → v ⇝ t`, or None. */
    def run(): Option[IndexedSeq[TEdge]] = {
      // A simple s ⇝ t path never re-enters s or leaves t.
      if (seed.dst == q.s || seed.src == q.t) return None
      val (fwd, bwd)      = if (pre.forward) (pre, suf) else (suf, pre)
      val (first, second) = if (fwd.span >= bwd.span) (fwd, bwd) else (bwd, fwd)
      val found = dfs(first, first.from, first.fromTs, terminal = false,
        () => terminalRun(first.own,
          dfs(second, second.from, second.fromTs, terminal = true, () => true)))
      Option.when(found)((pre.inOrder ++ Iterator.single(seed) ++ suf.inOrder).toIndexedSeq)
    }
  }
}
