package core

import (
	"context"
	"sort"
	"time"

	"msc/internal/graph"
	"msc/internal/obs"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
)

// instSearch is the incremental σ evaluator for a single-topology Instance.
//
// It maintains, for the current placement F, the full distance row
// d_F(e, ·) of every distinct pair endpoint e. With those rows in hand, the
// marginal effect of adding one more shortcut f=(a,b) is exact and O(1) per
// pair:
//
//	d_{F∪{f}}(u,w) = min( d_F(u,w),
//	                      d_F(u,a) + d_F(b,w),
//	                      d_F(u,b) + d_F(a,w) )
//
// (a walk through f more than once can drop the repeat uses without getting
// longer, since edge lengths are non-negative and f itself has length 0).
// This is what lets GreedySigma and AEA scan all O(n²) candidate additions
// per round with a tight two-float-compare inner loop instead of re-running
// a shortest-path computation per candidate.
//
// The same identity also maintains the state across commits: Add computes
// only the two overlay rows d_F(a,·) and d_F(b,·) of the new shortcut's
// endpoints and merges them into every endpoint row in O(n), instead of
// recomputing all rows from a fresh overlay. Before the merge overwrites
// the rows, the live gains array is patched in place from the same two
// rows, so the next BestAdd pays no rescan for pairs the commit did not
// touch (see DESIGN.md §8). RemoveAt and the cold start rebuild every row
// from a fresh overlay: a deletion can lengthen distances, and min-merges
// cannot undo a min.
//
// Concurrency: an instSearch is single-caller like every Search, but with
// SetWorkers > 1 its scans shard internally — GainsAdd splits the
// triangular candidate grid into contiguous row ranges writing disjoint
// segments of the gains array, SigmaDrops splits the per-position σ
// re-evaluations, and Add shards the row merge (and the gains patch) the
// same way. All shared inputs (the instance, the overlay, the distance
// rows during a scan) are read-only while workers run, so the results are
// byte-identical to the serial scan.
type instSearch struct {
	inst    *Instance
	sel     []int
	workers int             // shard count for scans; 1 = serial
	ctx     context.Context // supervision context polled mid-scan; nil = never

	endpoints []graph.NodeID // distinct pair endpoints
	rows      [][]float64    // rows[i][x] = d_F(endpoints[i], x)
	pairU     []int32        // row index of pair i's U endpoint
	pairW     []int32        // row index of pair i's W endpoint
	pairDist  []float64      // d_F(u,w) per pair
	gains     []int          // scratch for BestAdd, len NumCandidates
	unsat     []int          // scratch: unsatisfied pair indices
	drops     []int          // scratch for SigmaDrops
	rest      []int          // scratch for SigmaDrop (single-caller path)
	dropRest  [][]int        // per-shard scratch for SigmaDrops
	sigma     int

	// Cached triangular-grid shard bounds for the current worker count
	// (triRowBounds allocates, and the warm scan path must not).
	bounds        []int
	boundsWorkers int
	// Cached scan-shard trampoline and cold-scan body: closures allocate,
	// and the warm gains scan must not — both are built once and reused,
	// with scanBody carrying the current scan's per-call body.
	scanBody  func(aiLo, aiHi int)
	shardRun  func(shard, lo, hi int)
	gainsBody func(aiLo, aiHi int)

	// Incremental evaluation state (DESIGN.md §8).
	// gainsValid marks gains/inGains as exactly what a cold scan over the
	// CURRENT rows would produce. Set by a completed cold scan, kept up to
	// date by Add's delta patch, dropped by RemoveAt and interruption.
	gainsValid bool
	inGains    []bool    // per pair: gains holds its contribution (i.e. it was unsatisfied at the last sync)
	rowShort   []float64 // scratch: d_F(a,·) of the committing shortcut (a,b)... [rowA]
	rowShortB  []float64 // ... and d_F(b,·) [rowB]
	mergeSrc   []graph.NodeID
	mergeDst   [][]float64
	// Per-Add merge scratch: firstChange[r] is the first node index the
	// commit improved in row r (−1 = row untouched); changedCand[r] holds
	// the changed candidate positions whose NEW value is ≤ d_t — the only
	// positions through which a candidate cell can newly satisfy the pair
	// (both summands of a term ≤ d_t must themselves be ≤ d_t).
	firstChange []int
	changedCand [][]int32
	shardCnt    []int64 // per-shard changed-row counts of the last merge

	// Pair classification scratch for the delta gains patch.
	dropPairs  []int32 // pairs the commit newly satisfied
	fullPairs  []int32 // changed pairs past the delta cutoff: fused full rescan
	deltaPairs []int32 // changed pairs rescanned only at changed positions
	deltaOff   []int32 // deltaPos offsets, one extra leading 0
	deltaPos   []int32 // arena of per-pair merged changed-position lists

	// Pruned-scan state. Every cold scan restricts each pair to its
	// near-candidate list (the candidates within d_t of either endpoint):
	// a candidate cell (a,b) can only gain through ru[a]+rw[b] ≤ d_t or
	// ru[b]+rw[a] ≤ d_t, and with non-negative distances both summands of
	// a passing term are themselves ≤ d_t, so every gaining cell has both
	// endpoints in the list — scanning the list's triangle is exactly
	// equivalent to the full grid. The lists are the d_t-balls, built
	// only from values ≤ d_t, which every backend stores bit-identically;
	// the candidate universe they skip feeds the CandidatesPruned counter,
	// accumulated while the lists are built (serially), so the total is
	// identical at every worker count and on every backend. sparseBest
	// additionally replaces the dense gains array — numCand ints, ~40 GB
	// at n=10⁵ — with a sparse aggregation in BestAdd.
	sparseBest bool
	candUOff   []int   // per-unsat-pair offsets into candU (len(unsat)+1)
	candU      []int32 // arena: near-candidate positions, ascending per pair
	// Sparse BestAdd scratch: the inverse near-list index (for each
	// candidate position, which unsat pairs list it and where) and the
	// per-worker gain accumulators.
	byAOff  []int32         // per-position offsets into byAPair (t+1)
	byAPair []int32         // arena: unsat-pair ordinals listing each position
	accW    []sparseScratch // per-worker accumulator scratch, sized lazily
	// Per-pair distance-sorted balls: for unsat pair ui, segment 2·ui is
	// the u-ball (positions with ru ≤ d_t, ascending by ru) and segment
	// 2·ui+1 the w-ball (ascending by rw), so "every b with
	// rw[b] ≤ d_t − ru[a]" is a prefix instead of a filtered scan.
	prefOff  []int
	prefPos  []int32
	prefDist []float64

	// EvalStats accumulators, drained by LastEvalStats.
	evRowsMerged, evRowsUnchanged    int64
	evPairsRescanned, evPairsSkipped int64

	// Scan-timing telemetry (ScanTimer); off unless a trace sink asked for
	// it, so the default gains scan never reads the clock.
	timeScan   bool
	shardNS    []int64 // scratch: per-shard wall time of the last timed scan
	scanMinNS  int64
	scanMaxNS  int64
	scanShards int
}

var (
	_ ParallelSearch = (*instSearch)(nil)
	_ ScanTimer      = (*instSearch)(nil)
	_ ContextAware   = (*instSearch)(nil)
	_ EvalStats      = (*instSearch)(nil)
)

// NewSearch returns an evaluator positioned at sel (copied): the plain
// incremental σ search, or — when the instance carries a survivability
// mode — the worst-case survivable search, which wraps one plain search
// per failure scenario and speaks the lexicographic value L (survive.go).
func (inst *Instance) NewSearch(sel []int) Search {
	if inst.survive != SurviveNone {
		return newSurviveSearch(inst, sel)
	}
	return inst.newInstSearch(sel)
}

// newInstSearch returns the plain incremental evaluator positioned at sel
// (copied), bypassing the survivability dispatch — the survivable search
// uses it to build its per-scenario sub-searches on the same instance.
func (inst *Instance) newInstSearch(sel []int) *instSearch {
	s := inst.newSearchState(sel)
	s.rebuild()
	return s
}

// newSearchState allocates an instSearch positioned at sel with every
// scratch buffer sized, but with the distance rows still unset: callers
// either rebuild() (cold start) or copy rows from a sibling (clone).
func (inst *Instance) newSearchState(sel []int) *instSearch {
	s := &instSearch{
		inst:       inst,
		sel:        append([]int(nil), sel...),
		workers:    1,
		endpoints:  inst.ps.Nodes(),
		sparseBest: inst.numCand >= sparseGainsThreshold,
	}
	rowIdx := make(map[graph.NodeID]int, len(s.endpoints))
	for i, e := range s.endpoints {
		rowIdx[e] = i
	}
	s.rows = make([][]float64, len(s.endpoints))
	for i := range s.rows {
		s.rows[i] = make([]float64, inst.g.N())
	}
	m := inst.ps.Len()
	s.pairU = make([]int32, m)
	s.pairW = make([]int32, m)
	for i, p := range inst.ps.Pairs() {
		s.pairU[i] = int32(rowIdx[p.U])
		s.pairW[i] = int32(rowIdx[p.W])
	}
	s.pairDist = make([]float64, m)
	s.inGains = make([]bool, m)
	s.firstChange = make([]int, len(s.rows))
	s.changedCand = make([][]int32, len(s.rows))
	// Classification scratch sized up front so the delta patch of a warm
	// search never allocates.
	s.dropPairs = make([]int32, 0, m)
	s.fullPairs = make([]int32, 0, m)
	s.deltaPairs = make([]int32, 0, m)
	s.deltaOff = make([]int32, 0, m+1)
	return s
}

// clone returns an independent search positioned at the same selection:
// the distance rows, pair distances, σ, and — when live — the gains array
// are copied, so the clone needs no shortest-path work at all. The
// survivable search uses this to snapshot the pre-commit state as the
// failure scenario of the shortcut being committed.
func (s *instSearch) clone() *instSearch {
	c := s.inst.newSearchState(s.sel)
	c.workers = s.workers
	c.ctx = s.ctx
	for i := range s.rows {
		copy(c.rows[i], s.rows[i])
	}
	copy(c.pairDist, s.pairDist)
	c.sigma = s.sigma
	if s.gainsValid {
		c.gains = make([]int, len(s.gains))
		copy(c.gains, s.gains)
		copy(c.inGains, s.inGains)
		c.gainsValid = true
	}
	return c
}

// SetWorkers fixes the shard count for subsequent scans; 1 means fully
// serial, n <= 0 resolves via ResolveParallelism.
func (s *instSearch) SetWorkers(n int) { s.workers = ResolveParallelism(n) }

// SetContext implements ContextAware: subsequent scans poll ctx once per
// unsatisfied pair (gains scans) or per drop position (SigmaDrops) and bail
// out when it is done, leaving partial scratch the solver discards. Polling
// reads but never writes scan state, so a context that is never canceled
// leaves every scan result bit-identical.
func (s *instSearch) SetContext(ctx context.Context) { s.ctx = ctx }

// interrupted reports whether the supervision context wants the scan to
// stop.
func (s *instSearch) interrupted() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// EnableScanTiming implements ScanTimer.
func (s *instSearch) EnableScanTiming(on bool) { s.timeScan = on }

// LastScanShards implements ScanTimer. The most recent timed scan may be
// Add's delta gains patch rather than a cold GainsAdd pass — both shard
// over the same grid row ranges.
func (s *instSearch) LastScanShards() (minNS, maxNS int64, shards int) {
	return s.scanMinNS, s.scanMaxNS, s.scanShards
}

// LastEvalStats implements EvalStats: it drains the incremental-evaluation
// work accumulated since the previous call (or since construction).
func (s *instSearch) LastEvalStats() (rowsMerged, rowsUnchanged, pairsRescanned, pairsSkipped int64) {
	rowsMerged, rowsUnchanged = s.evRowsMerged, s.evRowsUnchanged
	pairsRescanned, pairsSkipped = s.evPairsRescanned, s.evPairsSkipped
	s.evRowsMerged, s.evRowsUnchanged = 0, 0
	s.evPairsRescanned, s.evPairsSkipped = 0, 0
	return rowsMerged, rowsUnchanged, pairsRescanned, pairsSkipped
}

// recordScanShards reduces the per-shard wall times in s.shardNS[:shards].
func (s *instSearch) recordScanShards(shards int) {
	minNS, maxNS := s.shardNS[0], s.shardNS[0]
	for _, ns := range s.shardNS[1:shards] {
		if ns < minNS {
			minNS = ns
		}
		if ns > maxNS {
			maxNS = ns
		}
	}
	s.scanMinNS, s.scanMaxNS, s.scanShards = minNS, maxNS, shards
	obs.ObserveScanShards(minNS, maxNS, shards)
}

// gridBounds returns the triangular-grid shard row bounds for the current
// worker count, cached so warm scans never allocate.
func (s *instSearch) gridBounds() []int {
	if s.bounds == nil || s.boundsWorkers != s.workers {
		s.bounds = triRowBounds(len(s.inst.candNodes), s.workers)
		s.boundsWorkers = s.workers
	}
	return s.bounds
}

// scanShardsRun runs body over the shard row ranges of the triangular
// candidate grid (inline when one shard), recording per-shard wall times
// when scan timing is on. Both the cold gains scan and the delta patch go
// through here, so their gains writes shard identically. The trampoline
// handed to ParallelFor is built once and reads the current body from
// scanBody, keeping the warm scan path allocation-free.
func (s *instSearch) scanShardsRun(body func(aiLo, aiHi int)) {
	bounds := s.gridBounds()
	shards := len(bounds) - 1
	s.scanBody = body
	if s.shardRun == nil {
		s.shardRun = func(shard, _, _ int) {
			b := s.bounds
			if !s.timeScan {
				s.scanBody(b[shard], b[shard+1])
				return
			}
			start := time.Now()
			s.scanBody(b[shard], b[shard+1])
			s.shardNS[shard] = time.Since(start).Nanoseconds()
		}
	}
	if s.timeScan && cap(s.shardNS) < shards {
		s.shardNS = make([]int64, shards)
	}
	ParallelFor(shards, shards, s.shardRun)
	s.scanBody = nil
	if s.timeScan {
		s.recordScanShards(shards)
	}
}

// rebuild recomputes every endpoint row from a fresh overlay and refreshes
// the pair distances; any live gains state is dropped.
func (s *instSearch) rebuild() {
	ov := shortestpath.NewOverlay(s.inst.table, SelectionEdges(s.inst, s.sel))
	shortestpath.NewEvaluator(ov, s.workers).DistRows(s.endpoints, s.rows)
	s.recomputeSigma()
	s.gainsValid = false
}

// recomputeSigma refreshes pairDist and σ from the current rows.
func (s *instSearch) recomputeSigma() {
	s.sigma = 0
	for i, p := range s.inst.ps.Pairs() {
		d := s.rows[s.pairU[i]][p.W]
		s.pairDist[i] = d
		if d <= s.inst.thr.D {
			s.sigma += int(s.inst.weights[i])
		}
	}
}

func (s *instSearch) Sigma() int { return s.sigma }

func (s *instSearch) Selection() []int { return append([]int(nil), s.sel...) }

func (s *instSearch) Len() int { return len(s.sel) }

func (s *instSearch) Contains(cand int) bool {
	for _, c := range s.sel {
		if c == cand {
			return true
		}
	}
	return false
}

func (s *instSearch) GainAdd(cand int) int {
	telemetry.Global().CandidateEvals.Add(1)
	e := s.inst.CandidateEdge(cand)
	a, b := e.U, e.V
	dt := s.inst.thr.D
	gain := 0
	for i := range s.pairDist {
		if s.pairDist[i] <= dt {
			continue // already satisfied; adding edges cannot unsatisfy
		}
		ru := s.rows[s.pairU[i]]
		rw := s.rows[s.pairW[i]]
		if ru[a]+rw[b] <= dt || ru[b]+rw[a] <= dt {
			gain += int(s.inst.weights[i])
		}
	}
	return gain
}

// BestAdd scans every candidate shortcut and returns the one with the
// largest σ gain (ties toward the lowest candidate index) together with
// that gain. Candidates already in the selection naturally score 0: their
// zero-length edge is already reflected in d_F. On a degenerate instance
// with an empty candidate universe it returns (-1, 0).
func (s *instSearch) BestAdd() (cand, gain int) {
	if s.sparseBest {
		return s.bestAddSparse()
	}
	gains := s.GainsAdd()
	if len(gains) == 0 {
		return -1, 0
	}
	best, bestGain := 0, gains[0]
	for i := 1; i < len(gains); i++ {
		if gains[i] > bestGain {
			best, bestGain = i, gains[i]
		}
	}
	return best, bestGain
}

// sparseGainsThreshold is the candidate-universe size at and above which
// BestAdd aggregates sparse gain cells instead of materializing the dense
// gains array (numCand ints — 40 GB at n=10⁵ with the full universe). A
// package variable so tests can lower it and differential-check the two
// paths on small instances.
var sparseGainsThreshold = 1 << 26

// sparseScratch is one worker's accumulator state for the sparse
// BestAdd: gain sums per candidate position for the ai row being
// scanned, an epoch stamp marking which entries of acc are live, and the
// list of stamped positions for the argmax pass.
type sparseScratch struct {
	acc     []int
	stamp   []int32
	touched []int32
}

// bestAddSparse is BestAdd for huge candidate universes: instead of a
// dense gains array (numCand ints) it aggregates gains one grid row at a
// time. For each near-candidate position ai it visits — via the inverse
// index built from the near lists — every (unsat pair, passing cell
// (ai, bj)) contribution, summing weights into a per-position
// accumulator, then argmaxes the row and moves on; peak memory is O(t)
// per worker instead of O(t²). The passing b's for a fixed pair and a
// are enumerated as two distance-sorted prefixes (rw[b] ≤ d_t − ru[a]
// over the w-ball, ru[b] ≤ d_t − rw[a] over the u-ball, the second
// skipping cells the first already counted), so the walk touches only
// gaining cells, not the whole near-list triangle. The visited cells are
// exactly the nonzero cells of the dense scan (see the pruned-scan
// invariant) and the sums are exact integer adds, so the result matches
// the dense argmax, including the (0, 0) answer of an all-zero scan.
// Workers split the ai range by equal inverse-index load; each keeps a
// local best and the combine is a total order on (gain desc, cell index
// asc), so the answer is identical at every worker count. Counter
// discipline mirrors a cold scan: CandidateEvals advances by the logical
// universe size, PairsRescanned by the unsatisfied pair count,
// CandidatesPruned by the skipped cells.
func (s *instSearch) bestAddSparse() (cand, gain int) {
	telemetry.Global().CandidateEvals.Add(int64(s.inst.numCand))
	if s.inst.numCand == 0 {
		return -1, 0
	}
	dt := s.inst.thr.D
	s.unsat = s.unsat[:0]
	for i := range s.pairDist {
		if s.pairDist[i] > dt {
			s.unsat = append(s.unsat, i)
		}
	}
	telemetry.Global().PairsRescanned.Add(int64(len(s.unsat)))
	s.evPairsRescanned += int64(len(s.unsat))
	obs.ObserveMerge(0, int64(len(s.unsat)))
	s.buildCandU()
	s.buildByA()
	s.buildPrefixes()
	nodes := s.inst.candNodes
	t := len(nodes)

	workers := s.workers
	if workers > t {
		workers = t
	}
	if workers < 1 {
		workers = 1
	}
	if len(s.accW) < workers {
		s.accW = append(s.accW, make([]sparseScratch, workers-len(s.accW))...)
	}
	bounds := s.byALoadBounds(workers)
	bestIdx := make([]int, workers)
	bestGain := make([]int, workers)
	ParallelFor(workers, workers, func(w, _, _ int) {
		sc := &s.accW[w]
		if len(sc.acc) < t {
			sc.acc = make([]int, t)
			sc.stamp = make([]int32, t)
		}
		acc, stamp := sc.acc, sc.stamp
		touched := sc.touched[:0]
		epoch := int32(0)
		best, bg := -1, 0
		for ai := bounds[w]; ai < bounds[w+1]; ai++ {
			lo, hi := s.byAOff[ai], s.byAOff[ai+1]
			if lo == hi {
				continue
			}
			if s.interrupted() {
				break
			}
			epoch++
			if epoch == 1 {
				// First use (or int32 wraparound on reuse): clear the stamps
				// so stale marks can never alias the new epoch sequence.
				for i := range stamp {
					stamp[i] = 0
				}
			}
			touched = touched[:0]
			a := nodes[ai]
			for k := lo; k < hi; k++ {
				ui := s.byAPair[k]
				i := s.unsat[ui]
				w := int(s.inst.weights[i])
				ru := s.rows[s.pairU[i]]
				rw := s.rows[s.pairW[i]]
				ca := dt - ru[a]
				cb := dt - rw[a]
				// b's satisfying ru[a] + rw[b] ≤ d_t: a prefix of the
				// w-ball in ascending-rw order.
				pos := s.prefPos[s.prefOff[2*ui+1]:s.prefOff[2*ui+2]]
				dist := s.prefDist[s.prefOff[2*ui+1]:s.prefOff[2*ui+2]]
				for j := 0; j < len(pos); j++ {
					if dist[j] > ca {
						break
					}
					bj := pos[j]
					if int(bj) <= ai {
						continue // cell owned by the lower position's row
					}
					if stamp[bj] != epoch {
						stamp[bj] = epoch
						acc[bj] = w
						touched = append(touched, bj)
					} else {
						acc[bj] += w
					}
				}
				// b's satisfying rw[a] + ru[b] ≤ d_t, skipping those the
				// first prefix already counted for this pair.
				pos = s.prefPos[s.prefOff[2*ui]:s.prefOff[2*ui+1]]
				dist = s.prefDist[s.prefOff[2*ui]:s.prefOff[2*ui+1]]
				for j := 0; j < len(pos); j++ {
					if dist[j] > cb {
						break
					}
					bj := pos[j]
					if int(bj) <= ai || rw[nodes[bj]] <= ca {
						continue
					}
					if stamp[bj] != epoch {
						stamp[bj] = epoch
						acc[bj] = w
						touched = append(touched, bj)
					} else {
						acc[bj] += w
					}
				}
			}
			base := rowStart(t, ai) - ai - 1
			for _, bj := range touched {
				g := acc[bj]
				idx := base + int(bj)
				if g > bg || (g == bg && (best < 0 || idx < best)) {
					best, bg = idx, g
				}
			}
		}
		sc.touched = touched
		bestIdx[w], bestGain[w] = best, bg
	})
	best, bg := 0, 0
	for w := 0; w < workers; w++ {
		if bestGain[w] > bg || (bestGain[w] == bg && bg > 0 && bestIdx[w] < best) {
			best, bg = bestIdx[w], bestGain[w]
		}
	}
	return best, bg
}

// buildByA inverts the near-candidate lists of buildCandU: for each
// candidate position, the unsat-pair ordinals whose near list contains
// it. Counting sort over the candU arena; byAOff is the prefix-sum
// offset table.
func (s *instSearch) buildByA() {
	t := len(s.inst.candNodes)
	if cap(s.byAOff) < t+1 {
		s.byAOff = make([]int32, t+1)
	}
	off := s.byAOff[:t+1]
	for i := range off {
		off[i] = 0
	}
	for _, p := range s.candU {
		off[p+1]++
	}
	for i := 0; i < t; i++ {
		off[i+1] += off[i]
	}
	n := len(s.candU)
	if cap(s.byAPair) < n {
		s.byAPair = make([]int32, n)
	}
	s.byAPair = s.byAPair[:n]
	fill := make([]int32, t)
	for ui := 0; ui < len(s.unsat); ui++ {
		u := s.candU[s.candUOff[ui]:s.candUOff[ui+1]]
		for _, p := range u {
			s.byAPair[off[p]+fill[p]] = int32(ui)
			fill[p]++
		}
	}
	s.byAOff = off
}

// prefixSorter orders a (position, distance) segment by ascending
// distance; the relative order of equal distances is irrelevant — a
// prefix cut at d_t − ru[a] keeps or drops them together.
type prefixSorter struct {
	pos  []int32
	dist []float64
}

func (p prefixSorter) Len() int           { return len(p.pos) }
func (p prefixSorter) Less(i, j int) bool { return p.dist[i] < p.dist[j] }
func (p prefixSorter) Swap(i, j int) {
	p.pos[i], p.pos[j] = p.pos[j], p.pos[i]
	p.dist[i], p.dist[j] = p.dist[j], p.dist[i]
}

// buildPrefixes fills the per-pair distance-sorted balls backing the
// prefix walks of bestAddSparse: for each unsat pair, the positions
// within d_t of u sorted by ru, then those within d_t of w sorted by rw.
func (s *instSearch) buildPrefixes() {
	dt := s.inst.thr.D
	nodes := s.inst.candNodes
	s.prefOff = s.prefOff[:0]
	s.prefPos = s.prefPos[:0]
	s.prefDist = s.prefDist[:0]
	for ui, i := range s.unsat {
		u := s.candU[s.candUOff[ui]:s.candUOff[ui+1]]
		for _, side := range [2]*[]float64{&s.rows[s.pairU[i]], &s.rows[s.pairW[i]]} {
			r := *side
			start := len(s.prefPos)
			s.prefOff = append(s.prefOff, start)
			for _, p := range u {
				if d := r[nodes[p]]; d <= dt {
					s.prefPos = append(s.prefPos, p)
					s.prefDist = append(s.prefDist, d)
				}
			}
			sort.Sort(prefixSorter{s.prefPos[start:], s.prefDist[start:]})
		}
	}
	s.prefOff = append(s.prefOff, len(s.prefPos))
}

// byALoadBounds splits the candidate-position range into worker shards of
// roughly equal inverse-index load (the per-position near-list entry
// counts, which is what the row scans cost).
func (s *instSearch) byALoadBounds(workers int) []int {
	t := len(s.inst.candNodes)
	total := int64(len(s.byAPair))
	bounds := make([]int, workers+1)
	bounds[workers] = t
	ai := 0
	for w := 1; w < workers; w++ {
		target := total * int64(w) / int64(workers)
		for ai < t && int64(s.byAOff[ai]) < target {
			ai++
		}
		bounds[w] = ai
	}
	return bounds
}

// buildCandU fills the per-pair near-candidate lists for the pairs in
// unsat: the candidate positions within d_t of either pair endpoint, in
// ascending position order. Runs serially; the cells it proves zero-gain
// feed CandidatesPruned here, which keeps the counter identical at every
// worker count.
func (s *instSearch) buildCandU() {
	nodes := s.inst.candNodes
	dt := s.inst.thr.D
	s.candUOff = s.candUOff[:0]
	s.candU = s.candU[:0]
	pruned := int64(0)
	for _, i := range s.unsat {
		ru := s.rows[s.pairU[i]]
		rw := s.rows[s.pairW[i]]
		s.candUOff = append(s.candUOff, len(s.candU))
		for ci, x := range nodes {
			if ru[x] <= dt || rw[x] <= dt {
				s.candU = append(s.candU, int32(ci))
			}
		}
		u := int64(len(s.candU) - s.candUOff[len(s.candUOff)-1])
		pruned += int64(s.inst.numCand) - u*(u-1)/2
	}
	s.candUOff = append(s.candUOff, len(s.candU))
	telemetry.Global().CandidatesPruned.Add(pruned)
}

// GainsAdd computes the σ gain of every candidate addition. The returned
// slice is reused across calls.
//
// The array is usually already current: Add patches it in place when it
// commits a shortcut, so a warm call returns without scanning anything. A
// cold scan — the first call, or the first after a RemoveAt or an
// interrupted patch — runs the fused per-pair walk over each unsatisfied
// pair's near-candidate triangle with two float compares per cell.
//
// With workers > 1 the triangular candidate grid is split into contiguous
// row ranges of roughly equal cell count; each worker runs the same fused
// scan over its rows, writing the disjoint gains segment those rows map
// to. The distance rows are read-only during the scan and the per-cell
// accumulations are exact integer adds, so the gains array — and hence
// every argmax taken over it — is identical to the serial scan's.
func (s *instSearch) GainsAdd() []int {
	// One atomic add for the whole scan: the count is the logical scan
	// width, identical for every worker count whether the array is patched
	// or rescanned, and the inner loops stay untouched.
	telemetry.Global().CandidateEvals.Add(int64(s.inst.numCand))
	if s.gains == nil {
		s.gains = make([]int, s.inst.numCand)
	}
	if s.gainsValid {
		return s.gains
	}
	s.coldScan()
	return s.gains
}

// coldScan recomputes the gains array from scratch: zero it, collect the
// unsatisfied pairs, build their near-candidate lists, and run the fused
// pruned scan over them.
func (s *instSearch) coldScan() {
	for i := range s.gains {
		s.gains[i] = 0
	}
	dt := s.inst.thr.D
	s.unsat = s.unsat[:0]
	for i := range s.pairDist {
		un := s.pairDist[i] > dt
		if un {
			s.unsat = append(s.unsat, i)
		}
		s.inGains[i] = un
	}
	telemetry.Global().PairsRescanned.Add(int64(len(s.unsat)))
	s.evPairsRescanned += int64(len(s.unsat))
	obs.ObserveMerge(0, int64(len(s.unsat)))
	s.buildCandU()
	if s.gainsBody == nil {
		s.gainsBody = s.gainsPrunedRows // method value; built once, reused warm
	}
	s.scanShardsRun(s.gainsBody)
	s.gainsValid = !s.interrupted()
}

// gainsPrunedRows runs the fused gains scan restricted to candidate-grid
// rows [aiLo, aiHi), accumulating into the gains segment those rows own.
// Each unsatisfied pair walks only its near-candidate list (buildCandU
// must have run for the current unsat set): only cells with both
// endpoints in the list can gain, so the list's triangle, clipped to the
// shard's rows, holds exactly the cells a full-grid walk would increment.
// The gains array is bit-identical at every worker count.
func (s *instSearch) gainsPrunedRows(aiLo, aiHi int) {
	if aiLo >= aiHi {
		return
	}
	nodes := s.inst.candNodes
	t := len(nodes)
	dt := s.inst.thr.D
	for ui, i := range s.unsat {
		if s.interrupted() {
			return
		}
		w := int(s.inst.weights[i])
		ru := s.rows[s.pairU[i]]
		rw := s.rows[s.pairW[i]]
		u := s.candU[s.candUOff[ui]:s.candUOff[ui+1]]
		lo := sort.Search(len(u), func(j int) bool { return int(u[j]) >= aiLo })
		for x := lo; x < len(u); x++ {
			ai := int(u[x])
			if ai >= aiHi {
				break
			}
			a := nodes[ai]
			ca := dt - ru[a]
			cb := dt - rw[a]
			base := rowStart(t, ai) - ai - 1
			for _, bj := range u[x+1:] {
				b := nodes[bj]
				if rw[b] <= ca || ru[b] <= cb {
					s.gains[base+int(bj)] += w
				}
			}
		}
	}
}

// SigmaDrop evaluates σ with the pos-th selected shortcut removed, reusing
// a scratch selection buffer (single-caller, like every Search method —
// SigmaDrops uses per-shard buffers instead).
func (s *instSearch) SigmaDrop(pos int) int {
	s.rest = append(s.rest[:0], s.sel[:pos]...)
	s.rest = append(s.rest, s.sel[pos+1:]...)
	return s.inst.Sigma(s.rest)
}

// SigmaDrops returns σ(S \ {S[pos]}) for every position. Each evaluation
// builds its own overlay from the immutable instance, so with workers > 1
// the positions shard across goroutines — each shard owns a private
// selection scratch buffer, so no state is shared. The slice is scratch
// reused across calls.
func (s *instSearch) SigmaDrops() []int {
	if cap(s.drops) < len(s.sel) {
		s.drops = make([]int, len(s.sel))
	}
	s.drops = s.drops[:len(s.sel)]
	for cap(s.dropRest) < s.workers {
		s.dropRest = append(s.dropRest[:cap(s.dropRest)], nil)
	}
	s.dropRest = s.dropRest[:s.workers]
	ParallelFor(s.workers, len(s.sel), func(shard, lo, hi int) {
		rest := s.dropRest[shard]
		for pos := lo; pos < hi; pos++ {
			if s.interrupted() {
				return
			}
			rest = append(rest[:0], s.sel[:pos]...)
			rest = append(rest, s.sel[pos+1:]...)
			s.drops[pos] = s.inst.Sigma(rest)
		}
		s.dropRest[shard] = rest
	})
	return s.drops
}

// BestDrop returns the selection position whose removal leaves the largest
// σ (ties toward the lowest position) and that σ. It panics on an empty
// selection.
func (s *instSearch) BestDrop() (pos, sigma int) {
	if len(s.sel) == 0 {
		panic("core: BestDrop on empty selection")
	}
	drops := s.SigmaDrops()
	pos, sigma = 0, drops[0]
	for i := 1; i < len(drops); i++ {
		if drops[i] > sigma {
			pos, sigma = i, drops[i]
		}
	}
	return pos, sigma
}

// Add commits candidate cand: it merges the shortcut into the existing
// rows in O(n) per row and patches the live gains array (mergeAdd). On an
// instance with the test-only rebuildAdds reference set, it rebuilds every
// row from a fresh overlay instead.
func (s *instSearch) Add(cand int) {
	if s.inst.rebuildAdds {
		s.sel = append(s.sel, cand)
		s.rebuild()
		return
	}
	s.mergeAdd(cand)
}

// RemoveAt removes the selection element at position pos. Deletions always
// rebuild: removing a shortcut can lengthen distances, and the min-merge
// has no way to undo a min — the information about which pre-merge value a
// cell held is gone.
func (s *instSearch) RemoveAt(pos int) {
	s.sel = append(s.sel[:pos], s.sel[pos+1:]...)
	s.rebuild()
}

// mergeAdd is the incremental commit path. With f=(a,b) the new shortcut,
// it runs up to four passes:
//
//  1. Query the two overlay rows d_F(a,·), d_F(b,·) over the PRE-commit
//     selection (2 row queries — the only shortest-path work of the
//     commit, independent of the number of endpoint rows).
//  2. A read-only merge pre-pass per endpoint row finding the first
//     improved node (none ⇒ the row provably cannot change — RowsUnchanged)
//     and, when the gains array is live, the changed candidate positions
//     with new value ≤ d_t — the only positions through which any
//     candidate cell can newly satisfy a pair.
//  3. When the gains array is live: patch it in place (classifyPairs +
//     patchRows) while the rows still hold their pre-commit values —
//     new values are recomputed on the fly from the same min expression
//     the merge applies, so the patched array is bit-identical to a cold
//     scan over the merged rows.
//  4. Merge the rows in place and refresh pairDist/σ.
func (s *instSearch) mergeAdd(cand int) {
	e := s.inst.CandidateEdge(cand)
	fa, fb := int(e.U), int(e.V)
	n := s.inst.g.N()
	if s.rowShort == nil {
		s.rowShort = make([]float64, n)
		s.rowShortB = make([]float64, n)
		s.mergeSrc = make([]graph.NodeID, 2)
		s.mergeDst = make([][]float64, 2)
	}
	rowA, rowB := s.rowShort, s.rowShortB
	ov := shortestpath.NewOverlay(s.inst.table, SelectionEdges(s.inst, s.sel))
	s.mergeSrc[0], s.mergeSrc[1] = graph.NodeID(fa), graph.NodeID(fb)
	s.mergeDst[0], s.mergeDst[1] = rowA, rowB
	evWorkers := s.workers
	if evWorkers > 2 {
		evWorkers = 2
	}
	shortestpath.NewEvaluator(ov, evWorkers).DistRows(s.mergeSrc, s.mergeDst)
	s.sel = append(s.sel, cand)

	rows := len(s.rows)
	track := s.gainsValid
	dt := s.inst.thr.D
	pos := s.inst.candPos // nil when candidate positions are node ids
	shards := s.workers
	if shards > rows {
		shards = rows
	}
	if shards < 1 {
		shards = 1
	}
	if cap(s.shardCnt) < shards {
		s.shardCnt = make([]int64, shards)
	}
	cnt := s.shardCnt[:shards]
	for i := range cnt {
		cnt[i] = 0
	}
	// Pass 2: per-row merge pre-pass (read-only; rows and the two shortcut
	// rows are shared, every write is row-indexed and disjoint).
	ParallelFor(s.workers, rows, func(shard, lo, hi int) {
		changed := int64(0)
		for r := lo; r < hi; r++ {
			row := s.rows[r]
			da, db := row[fa], row[fb]
			first := -1
			for x, old := range row {
				nd := da + rowB[x]
				if d := db + rowA[x]; d < nd {
					nd = d
				}
				if nd < old {
					first = x
					break
				}
			}
			s.firstChange[r] = first
			if first < 0 {
				continue
			}
			changed++
			if !track {
				continue
			}
			cc := s.changedCand[r][:0]
			for x := first; x < len(row); x++ {
				nd := da + rowB[x]
				if d := db + rowA[x]; d < nd {
					nd = d
				}
				if nd < row[x] && nd <= dt {
					if pos == nil {
						cc = append(cc, int32(x))
					} else if p, ok := pos[graph.NodeID(x)]; ok {
						cc = append(cc, p)
					}
				}
			}
			s.changedCand[r] = cc
		}
		cnt[shard] = changed
	})
	var merged int64
	for _, c := range cnt {
		merged += c
	}
	g := telemetry.Global()
	g.RowsMerged.Add(merged)
	g.RowsUnchanged.Add(int64(rows) - merged)
	s.evRowsMerged += merged
	s.evRowsUnchanged += int64(rows) - merged
	obs.ObserveMerge(merged, 0)

	// Pass 3: patch the live gains array before the merge overwrites the
	// old row values the patch subtracts against.
	if track {
		s.classifyPairs(fa, fb, rowA, rowB)
		s.scanShardsRun(func(aiLo, aiHi int) { s.patchRows(fa, fb, rowA, rowB, aiLo, aiHi) })
		if s.interrupted() {
			s.gainsValid = false
		}
	}

	// Pass 4: merge the rows in place and refresh the pair distances.
	ParallelFor(s.workers, rows, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			first := s.firstChange[r]
			if first < 0 {
				continue
			}
			row := s.rows[r]
			da, db := row[fa], row[fb]
			for x := first; x < len(row); x++ {
				nd := da + rowB[x]
				if d := db + rowA[x]; d < nd {
					nd = d
				}
				if nd < row[x] {
					row[x] = nd
				}
			}
		}
	})
	s.recomputeSigma()
}

// classifyPairs sorts every pair carrying a gains contribution into the
// delta-patch work lists: newly satisfied pairs (contribution must leave
// gains), untouched pairs (PairsSkipped — their contribution stays
// verbatim), and changed pairs, rescanned either only at their changed
// candidate positions or — past the cutoff where the dense fused pass is
// cheaper — over the full grid. Classification is serial, so the lists and
// the counters are identical for every worker count.
func (s *instSearch) classifyPairs(fa, fb int, rowA, rowB []float64) {
	dt := s.inst.thr.D
	t := len(s.inst.candNodes)
	s.dropPairs = s.dropPairs[:0]
	s.fullPairs = s.fullPairs[:0]
	s.deltaPairs = s.deltaPairs[:0]
	s.deltaOff = append(s.deltaOff[:0], 0)
	s.deltaPos = s.deltaPos[:0]
	skipped := int64(0)
	for i, p := range s.inst.ps.Pairs() {
		if !s.inGains[i] {
			continue // satisfied at the last sync: no contribution to maintain
		}
		// New pair distance, by the same min expression (same operand
		// values) the row merge applies — bit-identical to the merged row.
		ru := s.rows[s.pairU[i]]
		nd := s.pairDist[i]
		if d := ru[fa] + rowB[p.W]; d < nd {
			nd = d
		}
		if d := ru[fb] + rowA[p.W]; d < nd {
			nd = d
		}
		if nd <= dt {
			s.dropPairs = append(s.dropPairs, int32(i))
			s.inGains[i] = false
			continue
		}
		var cu, cw []int32
		if s.firstChange[s.pairU[i]] >= 0 {
			cu = s.changedCand[s.pairU[i]]
		}
		if s.firstChange[s.pairW[i]] >= 0 {
			cw = s.changedCand[s.pairW[i]]
		}
		if len(cu) == 0 && len(cw) == 0 {
			skipped++
			continue
		}
		// Delta cutoff: each changed position costs one grid row + one grid
		// column at roughly twice the fused scan's per-cell work, so past
		// ~t/4 positions the dense pass wins.
		if 4*(len(cu)+len(cw)) >= t {
			s.fullPairs = append(s.fullPairs, int32(i))
			continue
		}
		// Merge the two sorted unique position lists into the arena.
		a, b := 0, 0
		for a < len(cu) || b < len(cw) {
			switch {
			case b >= len(cw) || (a < len(cu) && cu[a] < cw[b]):
				s.deltaPos = append(s.deltaPos, cu[a])
				a++
			case a >= len(cu) || cw[b] < cu[a]:
				s.deltaPos = append(s.deltaPos, cw[b])
				b++
			default:
				s.deltaPos = append(s.deltaPos, cu[a])
				a++
				b++
			}
		}
		s.deltaPairs = append(s.deltaPairs, int32(i))
		s.deltaOff = append(s.deltaOff, int32(len(s.deltaPos)))
	}
	rescanned := int64(len(s.dropPairs) + len(s.fullPairs) + len(s.deltaPairs))
	g := telemetry.Global()
	g.PairsRescanned.Add(rescanned)
	g.PairsSkipped.Add(skipped)
	s.evPairsRescanned += rescanned
	s.evPairsSkipped += skipped
	obs.ObserveMerge(0, rescanned)
}

// patchRows applies the classified delta patch to the gains segment owned
// by candidate-grid rows [aiLo, aiHi). It runs BEFORE the row merge: old
// values are read straight from the rows, new values recomputed on the fly
// with the merge's own min expression, so every satisfaction test matches
// what a cold scan over the merged rows would compute, bit for bit.
func (s *instSearch) patchRows(fa, fb int, rowA, rowB []float64, aiLo, aiHi int) {
	if aiLo >= aiHi {
		return
	}
	nodes := s.inst.candNodes
	t := len(nodes)
	dt := s.inst.thr.D
	// Newly satisfied pairs: subtract the old contribution wholesale.
	for _, pi := range s.dropPairs {
		if s.interrupted() {
			return
		}
		i := int(pi)
		w := int(s.inst.weights[i])
		ru := s.rows[s.pairU[i]]
		rw := s.rows[s.pairW[i]]
		idx := rowStart(t, aiLo)
		for ai := aiLo; ai < aiHi; ai++ {
			a := nodes[ai]
			ca := dt - ru[a]
			cb := dt - rw[a]
			for bi := ai + 1; bi < t; bi++ {
				b := nodes[bi]
				if rw[b] <= ca || ru[b] <= cb {
					s.gains[idx] -= w
				}
				idx++
			}
		}
	}
	// Changed pairs past the delta cutoff: one fused old/new pass. Merged
	// rows only shrink, so a satisfied cell stays satisfied and the update
	// is +w exactly where the cell newly satisfies.
	for _, pi := range s.fullPairs {
		if s.interrupted() {
			return
		}
		i := int(pi)
		w := int(s.inst.weights[i])
		ru := s.rows[s.pairU[i]]
		rw := s.rows[s.pairW[i]]
		ruFA, ruFB := ru[fa], ru[fb]
		rwFA, rwFB := rw[fa], rw[fb]
		idx := rowStart(t, aiLo)
		for ai := aiLo; ai < aiHi; ai++ {
			a := nodes[ai]
			oa := dt - ru[a]
			ob := dt - rw[a]
			nua := ru[a]
			if d := ruFA + rowB[a]; d < nua {
				nua = d
			}
			if d := ruFB + rowA[a]; d < nua {
				nua = d
			}
			nwa := rw[a]
			if d := rwFA + rowB[a]; d < nwa {
				nwa = d
			}
			if d := rwFB + rowA[a]; d < nwa {
				nwa = d
			}
			ca := dt - nua
			cb := dt - nwa
			for bi := ai + 1; bi < t; bi++ {
				b := nodes[bi]
				if rw[b] <= oa || ru[b] <= ob {
					idx++ // already satisfied before; still satisfied
					continue
				}
				nwb := rw[b]
				if d := rwFA + rowB[b]; d < nwb {
					nwb = d
				}
				if d := rwFB + rowA[b]; d < nwb {
					nwb = d
				}
				nub := ru[b]
				if d := ruFA + rowB[b]; d < nub {
					nub = d
				}
				if d := ruFB + rowA[b]; d < nub {
					nub = d
				}
				if nwb <= ca || nub <= cb {
					s.gains[idx] += w
				}
				idx++
			}
		}
	}
	// Delta pairs: only cells with an endpoint among the pair's changed
	// candidate positions can flip — a newly satisfying term needs both of
	// its summands ≤ d_t, and the summand that changed is then a changed
	// position with new value ≤ d_t. Each position c contributes its grid
	// row (c, ·) and its grid column (·, c); column cells whose other
	// endpoint is also in C are skipped (the row pass owns them).
	for di, pi := range s.deltaPairs {
		if s.interrupted() {
			return
		}
		i := int(pi)
		C := s.deltaPos[s.deltaOff[di]:s.deltaOff[di+1]]
		w := int(s.inst.weights[i])
		ru := s.rows[s.pairU[i]]
		rw := s.rows[s.pairW[i]]
		ruFA, ruFB := ru[fa], ru[fb]
		rwFA, rwFB := rw[fa], rw[fb]
		newRu := func(x graph.NodeID) float64 {
			nd := ru[x]
			if d := ruFA + rowB[x]; d < nd {
				nd = d
			}
			if d := ruFB + rowA[x]; d < nd {
				nd = d
			}
			return nd
		}
		newRw := func(x graph.NodeID) float64 {
			nd := rw[x]
			if d := rwFA + rowB[x]; d < nd {
				nd = d
			}
			if d := rwFB + rowA[x]; d < nd {
				nd = d
			}
			return nd
		}
		for ci, c32 := range C {
			c := int(c32)
			if c >= aiLo && c < aiHi {
				// Grid row c: cells (c, bi) for bi > c.
				a := nodes[c]
				oa := dt - ru[a]
				ob := dt - rw[a]
				ca := dt - newRu(a)
				cb := dt - newRw(a)
				idx := rowStart(t, c)
				for bi := c + 1; bi < t; bi++ {
					b := nodes[bi]
					if !(rw[b] <= oa || ru[b] <= ob) && (newRw(b) <= ca || newRu(b) <= cb) {
						s.gains[idx] += w
					}
					idx++
				}
			}
			// Grid column c: cells (ai, c) for ai < c, ai ∉ C.
			hi := c
			if hi > aiHi {
				hi = aiHi
			}
			if hi <= aiLo {
				continue
			}
			b := nodes[c]
			nwb := newRw(b)
			nub := newRu(b)
			p := 0
			for ai := aiLo; ai < hi; ai++ {
				for p < ci && int(C[p]) < ai {
					p++
				}
				if p < ci && int(C[p]) == ai {
					continue
				}
				a := nodes[ai]
				if !(rw[b] <= dt-ru[a] || ru[b] <= dt-rw[a]) && (nwb <= dt-newRu(a) || nub <= dt-newRw(a)) {
					s.gains[rowStart(t, ai)+c-ai-1] += w
				}
			}
		}
	}
}
