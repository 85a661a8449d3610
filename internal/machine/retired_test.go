package machine_test

import (
	"encoding/json"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sched"
)

// TestRetiredReliabilityBlockIsIgnored: machine documents written when
// the reliability model existed still decode, and the block no longer
// reaches the schedule-cache key — the document with it is the same
// machine as the document without it.
func TestRetiredReliabilityBlockIsIgnored(t *testing.T) {
	const plain = `{"name":"m","topology":"hypercube:2","params":{"ProcSpeed":1,"TaskStartup":1,"MsgStartup":5,"WordTime":1}}`
	const withBlock = `{"name":"m","topology":"hypercube:2","params":{"ProcSpeed":1,"TaskStartup":1,"MsgStartup":5,"WordTime":1},` +
		`"reliability":{"pe_fail":0.1,"link_drop":0.2,"grace":6}}`
	var a, b machine.Machine
	if err := json.Unmarshal([]byte(plain), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(withBlock), &b); err != nil {
		t.Fatalf("a document with a reliability block no longer decodes: %v", err)
	}
	g := graph.New("pair")
	g.MustAddTask("a", "a", 10)
	g.MustAddTask("b", "b", 10)
	g.MustConnect("a", "b", "u", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := sched.Fingerprint(flat, &a, "etf"), sched.Fingerprint(flat, &b, "etf"); fa != fb {
		t.Errorf("reliability block changed the fingerprint: %s != %s", fb, fa)
	}
	out, err := json.Marshal(&b)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(&a); string(out) != string(want) {
		t.Errorf("re-encoded %s, want %s", out, want)
	}
}
