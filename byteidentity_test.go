package banger_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/graph"
	"repro/internal/project"
	"repro/internal/sched"
)

// pinned holds, for every builtin project and for the 501-task layered
// design on ring:128, the schedule-cache key under mh and etf and the
// sha256 of the encoded project document, recorded at the commit before
// Fingerprint, the project and graph codecs and Flatten were rewritten
// for speed. A cache key or a document byte that moves is a behaviour
// change, whatever the benchmarks say.
var pinned = []struct{ name, mh, etf, doc string }{
	{"heat", "6e44d2a2a982dcc6c8df4f4d00960b2fb3820b5c1e4b01dcd8193565d76a066c", "24cae8e463bbfe5fd59aab034441ac40a1603f0e6b1970b89bc01e9da2a3e76b", "a9030efbf93269b90662ae1e4082b1a9cb83f9d0a38807800d755279f7164d72"},
	{"lu3x3", "f132b59241caa9b2d01fdaec371d5e0694de191e1a1f33ef7510aa7377518b9e", "295dd592af80a80e3d35a68ec9f6996ce368dcce5c43c4d843737e3341402492", "3a5404a4f3e4afe097958d63cb530bbd5aeccb27e2538f486c4bd5353ffb9103"},
	{"newton-sqrt", "7438f1cd4098a69dece6212804ca0b06bb50c9687cacfc3a8f240c054b39d052", "91916d495ac01bbaeb9fe53030715f699cb4115a0ff18db044487eed373112ef", "84b356e2049a2f98c4d2f40b60bc72093fbfad132c9d756c59aaf8795aa72617"},
	{"stats", "6fc47db4cc783cb3fac6cce983c0c5dba3844ffa2a7037b3881cbabf233a542e", "a3ba2460a8545f5885b030ca87794a0ae607893a2239e1e72111ec4d23a5b0f0", "48d74abcc574f60234a82683bde7d5d9bc13f081c1c993d3d709e706048e4ac8"},
	{"layered-calc", "8ed78f7aab167003ae162a7a43348b6bf102594402b32ff287ee24ed33942e36", "e81490a3dc86e5148cf598fec5bb317e00a982c7211a31f84ba43b8038742a92", "463ec1ef67493b1b7683ed1dcdcce7038cfd6aba3d3c53faf025a8a96d218fe3"},
}

func pinnedProject(t *testing.T, name string) *project.Project {
	t.Helper()
	if name == "layered-calc" {
		return layeredProject(t, "ring:128")
	}
	p, err := project.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestByteIdentityPinned(t *testing.T) {
	for _, want := range pinned {
		p := pinnedProject(t, want.name)
		flat, err := p.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		if got := sched.Fingerprint(flat, p.Machine, "mh"); got != want.mh {
			t.Errorf("%s: mh fingerprint %s, pinned %s", want.name, got, want.mh)
		}
		if got := sched.Fingerprint(flat, p.Machine, "etf"); got != want.etf {
			t.Errorf("%s: etf fingerprint %s, pinned %s", want.name, got, want.etf)
		}
		doc, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(doc); hex.EncodeToString(sum[:]) != want.doc {
			t.Errorf("%s: encoded project hashes to %x, pinned %s", want.name, sum, want.doc)
		}

		// Decode then encode gives the same bytes back, and the decoded
		// project is the same project to the schedule cache.
		var back project.Project
		if err := json.Unmarshal(doc, &back); err != nil {
			t.Fatal(err)
		}
		if again, err := json.Marshal(&back); err != nil || !bytes.Equal(again, doc) {
			t.Errorf("%s: decode then encode changed the document (err %v)", want.name, err)
		}
		backFlat, err := back.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		if got := sched.Fingerprint(backFlat, back.Machine, "mh"); got != want.mh {
			t.Errorf("%s: decoded project fingerprints to %s, pinned %s", want.name, got, want.mh)
		}

		// A design read through Graph.UnmarshalJSON and one read as a
		// graph.Doc are one construction path: same graph either way.
		design, err := json.Marshal(p.Design)
		if err != nil {
			t.Fatal(err)
		}
		var viaGraph graph.Graph
		var doc2 graph.Doc
		if err := json.Unmarshal(design, &viaGraph); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(design, &doc2); err != nil {
			t.Fatal(err)
		}
		viaDoc, err := graph.FromDoc(&doc2)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*graph.Graph{&viaGraph, viaDoc} {
			f, err := g.Flatten()
			if err != nil {
				t.Fatal(err)
			}
			if got := sched.Fingerprint(f, p.Machine, "mh"); got != want.mh {
				t.Errorf("%s: design decoded on its own fingerprints to %s, pinned %s", want.name, got, want.mh)
			}
		}
	}
}

// TestFlattenLeavesDesignAlone: Flatten reads the design it is given
// (it used to work on a deep clone). Flattening twice must leave the
// design's version and encoding where they were and give two flat
// graphs the scheduler cannot tell apart — on a flat design and on the
// two hierarchical ones.
func TestFlattenLeavesDesignAlone(t *testing.T) {
	for _, name := range []string{"lu3x3", "heat", "layered-calc"} {
		p := pinnedProject(t, name)
		version := p.Design.Version()
		before, err := json.Marshal(p.Design)
		if err != nil {
			t.Fatal(err)
		}
		var keys [2]string
		for i := range keys {
			flat, err := p.Flatten()
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = sched.Fingerprint(flat, p.Machine, "mh")
		}
		if keys[0] != keys[1] {
			t.Errorf("%s: two flattenings fingerprint differently: %s, %s", name, keys[0], keys[1])
		}
		if got := p.Design.Version(); got != version {
			t.Errorf("%s: flattening moved the design's version %d -> %d", name, version, got)
		}
		if after, err := json.Marshal(p.Design); err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s: flattening changed the design's encoding (err %v)", name, err)
		}
	}
}
