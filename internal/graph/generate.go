package graph

import (
	"fmt"
	"math/rand"
)

// This file provides deterministic generators for the task-graph shapes
// used throughout the benchmark harness: the classic structured graphs
// of the scheduling literature (chains, fork-joins, diamonds, FFT
// butterflies, Gaussian elimination) plus seeded random layered DAGs.

// Chain returns a linear chain of n tasks t0 -> t1 -> ... each with the
// given work, connected by arcs of the given word count.
func Chain(n int, work, words int64) *Graph {
	g := New(fmt.Sprintf("chain-%d", n))
	for i := 0; i < n; i++ {
		g.MustAddTask(NodeID(fmt.Sprintf("t%d", i)), fmt.Sprintf("stage %d", i), work)
	}
	for i := 1; i < n; i++ {
		g.MustConnect(NodeID(fmt.Sprintf("t%d", i-1)), NodeID(fmt.Sprintf("t%d", i)), fmt.Sprintf("v%d", i), words)
	}
	return g
}

// ForkJoin returns a fan-out/fan-in graph: one source task, width
// parallel middle tasks, one sink task.
func ForkJoin(width int, work, words int64) *Graph {
	g := New(fmt.Sprintf("forkjoin-%d", width))
	g.MustAddTask("src", "scatter", work)
	g.MustAddTask("snk", "gather", work)
	for i := 0; i < width; i++ {
		id := NodeID(fmt.Sprintf("w%d", i))
		g.MustAddTask(id, fmt.Sprintf("worker %d", i), work)
		g.MustConnect("src", id, fmt.Sprintf("in%d", i), words)
		g.MustConnect(id, "snk", fmt.Sprintf("out%d", i), words)
	}
	return g
}

// Diamond returns the 4-node diamond: a -> {b, c} -> d.
func Diamond(work, words int64) *Graph {
	g := New("diamond")
	g.MustAddTask("a", "top", work)
	g.MustAddTask("b", "left", work)
	g.MustAddTask("c", "right", work)
	g.MustAddTask("d", "bottom", work)
	g.MustConnect("a", "b", "ab", words)
	g.MustConnect("a", "c", "ac", words)
	g.MustConnect("b", "d", "bd", words)
	g.MustConnect("c", "d", "cd", words)
	return g
}

// FFT returns the task graph of an n-point (n a power of two)
// Cooley–Tukey FFT: log2(n) butterfly ranks of n tasks each.
func FFT(n int, work, words int64) (*Graph, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("FFT size %d is not a power of two >= 2", n)
	}
	g := New(fmt.Sprintf("fft-%d", n))
	ranks := 0
	for m := n; m > 1; m >>= 1 {
		ranks++
	}
	id := func(r, i int) NodeID { return NodeID(fmt.Sprintf("r%d.%d", r, i)) }
	for r := 0; r <= ranks; r++ {
		for i := 0; i < n; i++ {
			g.MustAddTask(id(r, i), fmt.Sprintf("bfly r%d i%d", r, i), work)
		}
	}
	for r := 1; r <= ranks; r++ {
		span := n >> r
		for i := 0; i < n; i++ {
			partner := i ^ span
			g.MustConnect(id(r-1, i), id(r, i), fmt.Sprintf("s%d.%d", r, i), words)
			g.MustConnect(id(r-1, partner), id(r, i), fmt.Sprintf("x%d.%d", r, i), words)
		}
	}
	return g, nil
}

// GE returns the task graph of Gaussian elimination on an n×n system:
// for each pivot column k there is a pivot task followed by (n-k-1)
// row-update tasks, each depending on the pivot and on the previous
// update of its row. This is the n-generalisation of the paper's
// Figure 1 LU example.
func GE(n int, pivotWork, updateWork, words int64) *Graph {
	g := New(fmt.Sprintf("ge-%d", n))
	piv := func(k int) NodeID { return NodeID(fmt.Sprintf("p%d", k)) }
	upd := func(k, i int) NodeID { return NodeID(fmt.Sprintf("u%d.%d", k, i)) }
	for k := 0; k < n-1; k++ {
		g.MustAddTask(piv(k), fmt.Sprintf("pivot %d", k), pivotWork)
		if k > 0 {
			// Pivot k needs row k as updated in step k-1.
			g.MustConnect(upd(k-1, k), piv(k), fmt.Sprintf("row%d", k), words)
		}
		for i := k + 1; i < n; i++ {
			g.MustAddTask(upd(k, i), fmt.Sprintf("update %d,%d", k, i), updateWork)
			g.MustConnect(piv(k), upd(k, i), fmt.Sprintf("l%d.%d", i, k), words)
			if k > 0 {
				g.MustConnect(upd(k-1, i), upd(k, i), fmt.Sprintf("row%d.%d", k, i), words)
			}
		}
	}
	return g
}

// LayeredConfig controls LayeredRandom generation.
type LayeredConfig struct {
	Layers   int   // number of layers (>= 1)
	Width    int   // tasks per layer (>= 1)
	MinWork  int64 // work drawn uniformly from [MinWork, MaxWork]
	MaxWork  int64
	MinWords int64 // arc words drawn uniformly from [MinWords, MaxWords]
	MaxWords int64
	Density  float64 // probability of an arc between adjacent-layer pairs
}

// LayeredRandom returns a random layered DAG: Width tasks in each of
// Layers layers; each task (after layer 0) is guaranteed at least one
// predecessor in the previous layer so the graph has no stray roots,
// and additional adjacent-layer arcs appear with probability Density.
// The generator is fully determined by rng.
func LayeredRandom(rng *rand.Rand, cfg LayeredConfig) (*Graph, error) {
	if cfg.Layers < 1 || cfg.Width < 1 {
		return nil, fmt.Errorf("layered random graph needs Layers>=1 and Width>=1, got %d/%d", cfg.Layers, cfg.Width)
	}
	if cfg.MinWork < 0 || cfg.MaxWork < cfg.MinWork || cfg.MinWords < 0 || cfg.MaxWords < cfg.MinWords {
		return nil, fmt.Errorf("invalid work/words ranges %+v", cfg)
	}
	g := New(fmt.Sprintf("rand-L%dxW%d", cfg.Layers, cfg.Width))
	span := func(lo, hi int64) int64 {
		if hi == lo {
			return lo
		}
		return lo + rng.Int63n(hi-lo+1)
	}
	id := func(l, i int) NodeID { return NodeID(fmt.Sprintf("n%d.%d", l, i)) }
	for l := 0; l < cfg.Layers; l++ {
		for i := 0; i < cfg.Width; i++ {
			g.MustAddTask(id(l, i), fmt.Sprintf("layer %d task %d", l, i), span(cfg.MinWork, cfg.MaxWork))
		}
	}
	for l := 1; l < cfg.Layers; l++ {
		for i := 0; i < cfg.Width; i++ {
			connected := false
			for p := 0; p < cfg.Width; p++ {
				if rng.Float64() < cfg.Density {
					g.MustConnect(id(l-1, p), id(l, i), fmt.Sprintf("v%d.%d.%d", l, i, p), span(cfg.MinWords, cfg.MaxWords))
					connected = true
				}
			}
			if !connected {
				p := rng.Intn(cfg.Width)
				g.MustConnect(id(l-1, p), id(l, i), fmt.Sprintf("v%d.%d.%d", l, i, p), span(cfg.MinWords, cfg.MaxWords))
			}
		}
	}
	return g, nil
}
