package pits

import (
	"sync"
	"testing"
)

// The function table is one map shared by every checker and interpreter
// in the process. These tests pin what sharing must not change: the
// rand() stream of a seed, the isolation of interpreters, and how the
// checker and the calculator panel see rand.

const randProg = "x = rand()\ny = rand()\nz = sqrt(x) + max(x, y) + sum([x, y])"

// randGolden are the values randProg produced when every Interp built
// its own table and bound rand to its own closure.
var randGolden = map[int64][3]float64{
	1: {0.60466028797961957, 0.94050908804501243, 3.2632775175539059},
	7: {0.91889215925276346, 0.23150717404875204, 3.0278801213480717},
}

func runRandProg(prog *Program, seed int64) ([3]float64, int64, error) {
	env := Env{}
	in := &Interp{Seed: seed}
	if err := in.Run(prog, env); err != nil {
		return [3]float64{}, 0, err
	}
	return [3]float64{float64(env["x"].(Num)), float64(env["y"].(Num)), float64(env["z"].(Num))}, in.Ops(), nil
}

func TestRandStreamUnchangedBySharedTable(t *testing.T) {
	prog := MustParse(randProg)
	for seed, want := range randGolden {
		got, ops, err := runRandProg(prog, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || ops != 23 {
			t.Errorf("seed %d: got %v in %d ops, want %v in 23", seed, got, ops, want)
		}
	}
}

// TestSharedTableConcurrentUse drives the table from 64 goroutines at
// once (run with -race): each checks and runs routines that
// call rand() and stateless builtins. Every interpreter must see its
// own seed's stream however the others interleave.
func TestSharedTableConcurrentUse(t *testing.T) {
	prog := MustParse(randProg)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				if err := Check(prog, nil); err != nil {
					t.Errorf("check: %v", err)
					return
				}
				got, _, err := runRandProg(prog, seed)
				if err != nil {
					t.Errorf("run: %v", err)
					return
				}
				if got != randGolden[seed] {
					t.Errorf("seed %d: stream %v, want %v: interpreters shared rand state", seed, got, randGolden[seed])
					return
				}
			}
		}([]int64{1, 7}[i%2])
	}
	wg.Wait()
}

// Two interpreters with the same seed, run interleaved, each get the
// full stream: a draw by one does not advance the other.
func TestInterpretersDoNotShareRandStream(t *testing.T) {
	first, rest := MustParse("x = rand()"), MustParse("y = rand()")
	a, b := &Interp{Seed: 1}, &Interp{Seed: 1}
	ea, eb := Env{}, Env{}
	for _, step := range []struct {
		in  *Interp
		p   *Program
		env Env
	}{{a, first, ea}, {b, first, eb}, {b, rest, eb}, {a, rest, ea}} {
		if err := step.in.Run(step.p, step.env); err != nil {
			t.Fatal(err)
		}
	}
	// Run reseeds, so each single-statement run draws the seed's first value.
	want := Num(randGolden[1][0])
	for _, env := range []Env{ea, eb} {
		if env["x"] != want || env["y"] != want {
			t.Errorf("x=%v y=%v, want both %v", env["x"], env["y"], want)
		}
	}
}

// rand sits in the shared table so the checker knows its arity, but the
// calculator panel adds its key itself.
func TestRandIsCheckedButNotListed(t *testing.T) {
	if err := Check(MustParse("x = rand(1)"), nil); err == nil {
		t.Error("checker accepted rand with an argument")
	}
	for _, b := range Builtins() {
		if b.Name == "rand" {
			t.Error("Builtins lists rand; the calculator panel adds it itself")
		}
	}
}
