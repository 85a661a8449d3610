package pits

import (
	"fmt"
	"sync"
	"testing"
)

// TestParseTableConcurrent: the program table is the one piece of
// state every session, rehearsal and validation in the process shares.
// Eight goroutines parse 64 distinct routines and one common one; run
// under -race.
func TestParseTableConcurrent(t *testing.T) {
	const shared = "shared_out = a + b * 2"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				src := fmt.Sprintf("v%d = x + %d", i, i)
				prog, err := Parse(src)
				if err != nil || prog.Source != src || len(prog.Stmts) != 1 {
					t.Errorf("goroutine %d: Parse(%q) = %v, %v", g, src, prog, err)
				}
				if prog, err := Parse(shared); err != nil || prog.Source != shared {
					t.Errorf("goroutine %d: Parse(shared) = %v, %v", g, prog, err)
				}
			}
		}(g)
	}
	wg.Wait()
	a, _ := Parse(shared)
	b, _ := Parse(shared)
	if a != b {
		t.Error("two parses of one settled source returned different programs")
	}
}

// TestParseErrorsAreNotCached: a routine that does not parse fails
// every time, with the same words, and never enters the table.
func TestParseErrorsAreNotCached(t *testing.T) {
	const bad = "y = = 1"
	_, first := Parse(bad)
	if first == nil {
		t.Fatalf("Parse(%q) succeeded", bad)
	}
	for i := 0; i < 3; i++ {
		if prog, err := Parse(bad); prog != nil || err == nil || err.Error() != first.Error() {
			t.Errorf("parse %d of a bad routine = %v, %v; want nil, %v", i+2, prog, err, first)
		}
	}
	programsMu.Lock()
	_, kept := programs[bad]
	programsMu.Unlock()
	if kept {
		t.Error("a failed parse was kept in the program table")
	}
}

// TestParseTableBounded: past maxPrograms distinct sources the table
// is dropped and refilled, never grown.
func TestParseTableBounded(t *testing.T) {
	for i := 0; i < maxPrograms+50; i++ {
		if _, err := Parse(fmt.Sprintf("bounded%d = %d", i, i)); err != nil {
			t.Fatal(err)
		}
		programsMu.Lock()
		n := len(programs)
		programsMu.Unlock()
		if n > maxPrograms {
			t.Fatalf("program table holds %d entries after %d parses, bound is %d", n, i+1, maxPrograms)
		}
	}
}
