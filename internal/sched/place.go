package sched

import "sort"

// This file places a schedule's processors onto worker processes. The
// distributed coordinator historically cut the processor range into
// contiguous blocks; that keeps per-worker counts balanced but ignores
// where the schedule's messages actually flow, and cross-worker bytes
// are the term that dominates distributed wall time. Place keeps the
// contiguous partition's per-worker quotas (so load stays balanced the
// same way) but chooses *which* processors share a worker by the
// schedule's per-pair traffic — a dense matrix built for the one
// placement and dropped with it — and is deterministic so the
// conformance harness stays reproducible.

// Place maps each processor of the finalized schedule onto one of
// `workers` worker processes and returns the peerOf vector
// (peerOf[pe] = worker index). Per-worker processor counts equal the
// contiguous partition's quotas; within those quotas a greedy
// affinity pass (heaviest-traffic processors first, joining the worker
// they already exchange the most words with) followed by a bounded
// pairwise-swap refinement minimizes cross-worker words. The result is
// never worse than the contiguous partition — both candidates are
// refined and the cheaper one wins, contiguous only on a strict win —
// and identical inputs yield identical placements.
func Place(s *Schedule, workers int) []int {
	numPE := s.Machine.NumPE()
	if workers > numPE {
		workers = numPE
	}
	if workers < 1 {
		workers = 1
	}
	// both[p*numPE+q] is the words p and q exchange, either way;
	// weight[p] is all p exchanges.
	both, weight := make([]int64, numPE*numPE), make([]int64, numPE)
	for _, m := range s.Msgs {
		if p, q := m.FromPE, m.ToPE; p != q && uint(p) < uint(numPE) && uint(q) < uint(numPE) {
			both[p*numPE+q] += m.Words
			both[q*numPE+p] += m.Words
			weight[p] += m.Words
			weight[q] += m.Words
		}
	}

	quota := make([]int, workers)
	base, rem := numPE/workers, numPE%workers
	for w := range quota {
		quota[w] = base
		if w < rem {
			quota[w]++
		}
	}

	// Candidate 1: the contiguous partition, refined.
	contig := make([]int, numPE)
	pe := 0
	for w := 0; w < workers; w++ {
		for k := 0; k < quota[w]; k++ {
			contig[pe] = w
			pe++
		}
	}
	refine(both, contig)

	// Candidate 2: greedy affinity, refined. Heavy processors place
	// first so their edges anchor the clusters.
	order := make([]int, numPE)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if weight[order[a]] != weight[order[b]] {
			return weight[order[a]] > weight[order[b]]
		}
		return order[a] < order[b]
	})
	greedy := make([]int, numPE)
	for i := range greedy {
		greedy[i] = -1
	}
	left := append([]int(nil), quota...)
	for _, p := range order {
		bestW, bestAff := -1, int64(-1)
		for w := 0; w < workers; w++ {
			if left[w] == 0 {
				continue
			}
			aff := int64(0)
			for q := 0; q < numPE; q++ {
				if greedy[q] == w {
					aff += both[p*numPE+q]
				}
			}
			if aff > bestAff {
				bestW, bestAff = w, aff
			}
		}
		greedy[p] = bestW
		left[bestW]--
	}
	refine(both, greedy)

	if CrossWorkerWords(s, contig) < CrossWorkerWords(s, greedy) {
		return contig
	}
	return greedy
}

// refine runs deterministic first-improvement swap passes over the
// placement: any pair of processors on different workers whose swap
// strictly reduces cross-worker words is swapped. Quotas are preserved
// by construction (a swap never changes per-worker counts). Passes are
// bounded; each full no-improvement scan terminates early.
func refine(both []int64, peerOf []int) {
	numPE := len(peerOf)
	for pass := 0; pass < 8; pass++ {
		improved := false
		for i := 0; i < numPE; i++ {
			for j := i + 1; j < numPE; j++ {
				if peerOf[i] == peerOf[j] {
					continue
				}
				if swapGain(both, peerOf, i, j) > 0 {
					peerOf[i], peerOf[j] = peerOf[j], peerOf[i]
					improved = true
				}
			}
		}
		if !improved {
			return
		}
	}
}

// swapGain returns the cross-worker words saved by swapping the worker
// assignments of processors i and j (positive = the swap helps). Only
// edges incident to i or j change, so the delta is O(numPE).
func swapGain(both []int64, peerOf []int, i, j int) int64 {
	n := len(peerOf)
	cost := func(p, wp int) int64 {
		var c int64
		for q, w := range both[p*n : (p+1)*n] {
			if q != i && q != j && peerOf[q] != wp {
				c += w
			}
		}
		return c
	}
	wi, wj := peerOf[i], peerOf[j]
	before := cost(i, wi) + cost(j, wj)
	after := cost(i, wj) + cost(j, wi)
	// The i<->j edge itself crosses workers either way; it cancels.
	return before - after
}

// CrossWorkerWords totals the schedule's message words whose endpoints
// the peerOf vector places on different workers: the quantity Place
// minimizes and the figure placement tests assert on.
func CrossWorkerWords(s *Schedule, peerOf []int) int64 {
	var words int64
	n := len(peerOf)
	for _, m := range s.Msgs {
		if uint(m.FromPE) < uint(n) && uint(m.ToPE) < uint(n) && peerOf[m.FromPE] != peerOf[m.ToPE] {
			words += m.Words
		}
	}
	return words
}
