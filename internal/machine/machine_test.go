package machine

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func testMachine(t *testing.T, dim int) *Machine {
	t.Helper()
	topo, err := Hypercube(dim)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New("test", topo, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := []Params{
		{ProcSpeed: 0},
		{ProcSpeed: -1},
		{ProcSpeed: 1, TaskStartup: -1},
		{ProcSpeed: 1, MsgStartup: -1},
		{ProcSpeed: 1, WordTime: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	topo, _ := Hypercube(2)
	if _, err := New("m", nil, DefaultParams()); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := New("m", topo, Params{}); err == nil {
		t.Error("zero params accepted")
	}
	disc, _ := Custom("d", 4, [][2]int{{0, 1}})
	if _, err := New("m", disc, DefaultParams()); err == nil {
		t.Error("disconnected topology accepted")
	}
}

func TestExecTime(t *testing.T) {
	m := testMachine(t, 2)
	// speed 1, startup 1: work 10 -> 11us.
	if got := m.ExecTime(10, 0); got != 11 {
		t.Errorf("ExecTime(10) = %v", got)
	}
	if got := m.ExecTime(0, 0); got != 1 {
		t.Errorf("ExecTime(0) = %v", got)
	}
	if got := m.ExecTime(-5, 0); got != 1 {
		t.Errorf("ExecTime(-5) = %v", got)
	}
}

func TestExecTimeCeilingDivision(t *testing.T) {
	topo, _ := Full(2)
	m, err := New("fast", topo, Params{ProcSpeed: 3, TaskStartup: 0, MsgStartup: 0, WordTime: 0})
	if err != nil {
		t.Fatal(err)
	}
	// 10 ops at 3 ops/us = ceil(10/3) = 4us.
	if got := m.ExecTime(10, 0); got != 4 {
		t.Errorf("ExecTime(10) = %v, want 4us", got)
	}
	if got := m.ExecTime(9, 0); got != 3 {
		t.Errorf("ExecTime(9) = %v, want 3us", got)
	}
}

func TestCommTime(t *testing.T) {
	m := testMachine(t, 3) // startup 5, word time 1
	// Co-located: free.
	if got := m.CommTime(100, 4, 4); got != 0 {
		t.Errorf("co-located comm = %v", got)
	}
	// 1 hop (0->1): 5 + 1*10*1 = 15.
	if got := m.CommTime(10, 0, 1); got != 15 {
		t.Errorf("1-hop comm = %v", got)
	}
	// 3 hops (0->7): 5 + 3*10*1 = 35.
	if got := m.CommTime(10, 0, 7); got != 35 {
		t.Errorf("3-hop comm = %v", got)
	}
	// Zero/negative words still cost startup across PEs.
	if got := m.CommTime(0, 0, 1); got != 5 {
		t.Errorf("0-word comm = %v", got)
	}
	if got := m.CommTime(-3, 0, 1); got != 5 {
		t.Errorf("negative-word comm = %v", got)
	}
}

// TestCommCoeffsSharedPerTopology: the fast path agrees with CommTime
// and reads the topology's own hop table — every machine over the
// topology, a hand-assembled value included, whatever its word time.
func TestCommCoeffsSharedPerTopology(t *testing.T) {
	topo, err := Torus(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{ProcSpeed: 1, MsgStartup: 7, WordTime: 3}
	a := MustNew("a", topo, p)
	startup, wordTime, hops := a.CommCoeffs()
	for q := 0; q < topo.N; q++ {
		for r := 0; r < topo.N; r++ {
			got := startup + 11*wordTime*Time(hops[q][r])
			if want := a.CommTime(11, q, r); q != r && got != want {
				t.Errorf("%d->%d: fast path gives %v, CommTime %v", q, r, got, want)
			}
		}
	}
	p.WordTime = 2
	if _, wt, other := (&Machine{Name: "b", Topo: topo, Params: p}).CommCoeffs(); wt != 2 || &other[0][0] != &hops[0][0] {
		t.Error("a second machine on the topology does not read its hop table")
	}
}

func TestCommTimeMonotoneInDistanceAndSize(t *testing.T) {
	m := testMachine(t, 4)
	f := func(w uint16, a, b, c uint8) bool {
		words := int64(w % 1000)
		p, q := int(a%16), int(b%16)
		// More words never cheaper.
		if m.CommTime(words+1, p, q) < m.CommTime(words, p, q) {
			return false
		}
		// Farther destination never cheaper (same words).
		r := int(c % 16)
		if m.Topo.Hops(p, q) <= m.Topo.Hops(p, r) {
			return m.CommTime(words, p, q) <= m.CommTime(words, p, r)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHeterogeneousSpeeds(t *testing.T) {
	m := testMachine(t, 1)
	if err := m.SetSpeeds([]int64{1, 4}); err != nil {
		t.Fatal(err)
	}
	if got := m.ExecTime(8, 0); got != 9 {
		t.Errorf("slow PE: %v", got)
	}
	if got := m.ExecTime(8, 1); got != 3 {
		t.Errorf("fast PE: %v (want 1 + 8/4 = 3)", got)
	}
	if err := m.SetSpeeds([]int64{1}); err == nil {
		t.Error("wrong-length speeds accepted")
	}
	if err := m.SetSpeeds([]int64{1, 0}); err == nil {
		t.Error("zero speed accepted")
	}
}

func TestScale(t *testing.T) {
	m := testMachine(t, 2)
	big, _ := Hypercube(3)
	m2, err := m.Scale(big)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumPE() != 8 || m2.Params != m.Params {
		t.Errorf("scaled machine wrong: %v", m2)
	}
}

func TestMachineString(t *testing.T) {
	m := testMachine(t, 2)
	s := m.String()
	for _, want := range []string{"test", "4 PEs", "hypercube-2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestParseTopology(t *testing.T) {
	cases := map[string]int{
		"hypercube:3": 8,
		"mesh:2x4":    8,
		"torus:2x2":   4,
		"tree:2x3":    7,
		"star:5":      5,
		"ring:6":      6,
		"chain:4":     4,
		"full:3":      3,
	}
	for spec, n := range cases {
		topo, err := ParseTopology(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if topo.N != n {
			t.Errorf("%s: N = %d, want %d", spec, topo.N, n)
		}
		// Spec round-trips.
		if got := topo.Spec(); got != spec {
			t.Errorf("Spec() = %q, want %q", got, spec)
		}
	}
	for _, bad := range []string{"", "hypercube", "mesh:2", "blah:3", "star:x", "mesh:axb",
		// A number must be the whole field, not a prefix of it.
		"ring:128abc", "ring:12 7", "mesh:2x3x4", "hypercube:3.9", "torus:2x2\n"} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

// numPE must agree with what build makes, without building it, and
// must not overflow or loop on absurd arguments.
func TestSpecNumPE(t *testing.T) {
	for _, spec := range []string{"hypercube:0", "hypercube:5", "mesh:3x7", "torus:4x4", "tree:1x6",
		"tree:2x5", "tree:3x4", "star:9", "ring:12", "chain:7", "full:6"} {
		ts, err := parseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := ts.build()
		if err != nil {
			t.Fatal(err)
		}
		if got := ts.numPE(); got != topo.N {
			t.Errorf("%s: numPE = %d, built N = %d", spec, got, topo.N)
		}
	}
	for _, spec := range []string{"ring:9000000000000000000", "hypercube:64", "hypercube:9000000000000000000",
		"mesh:4000000000x4000000000", "tree:1x9000000000000000000", "tree:2x9000000000000000000",
		"tree:9000000000000000000x3"} {
		ts, err := parseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := ts.numPE(); got != math.MaxInt32 {
			t.Errorf("%s: numPE = %d, want saturation at %d", spec, got, math.MaxInt32)
		}
	}
	for _, spec := range []string{"ring:-4", "mesh:-2x8", "tree:0x5", "hypercube:-1"} {
		ts, err := parseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := ts.numPE(); got > 1 {
			t.Errorf("%s: numPE = %d, want at most 1 (the constructor reports the bad argument)", spec, got)
		}
	}
}

// A document may not make the decoder build an arbitrarily large
// machine: the size check reads the spec, before any table exists.
func TestMachineJSONSizeLimit(t *testing.T) {
	doc := func(topo string) string {
		return `{"name":"big",` + topo + `,"params":{"ProcSpeed":1}}`
	}
	for _, topo := range []string{`"topology":"ring:200000"`, `"topology":"full:200000"`, `"topology":"hypercube:11"`,
		`"topology":"mesh:33x32"`, `"topology":"tree:2x11"`, `"n":1025,"edges":[[0,1]]`} {
		var m Machine
		err := json.Unmarshal([]byte(doc(topo)), &m)
		if err == nil || !strings.Contains(err.Error(), "at most 1024") {
			t.Errorf("%s: err = %v, want the 1024-processor limit", topo, err)
		}
	}
	var m Machine
	if err := json.Unmarshal([]byte(doc(`"topology":"hypercube:10"`)), &m); err != nil || m.NumPE() != maxDecodedPEs {
		t.Errorf("hypercube:10 at the limit: %v, %d PEs", err, m.NumPE())
	}
	// The command line's path is not limited.
	if topo, err := ParseTopology("ring:1500"); err != nil || topo.N != 1500 {
		t.Errorf("ParseTopology(ring:1500) = %v, %v", topo, err)
	}
}

func TestMachineJSONRoundTrip(t *testing.T) {
	m := testMachine(t, 3)
	if err := m.SetSpeeds([]int64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Machine
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != m.Name || back.NumPE() != m.NumPE() || back.Params != m.Params {
		t.Errorf("round trip changed machine: %v vs %v", &back, m)
	}
	if back.Speed(7) != 8 {
		t.Errorf("speeds lost: %v", back.Speeds)
	}
	if back.Topo.Hops(0, 7) != m.Topo.Hops(0, 7) {
		t.Error("topology changed in round trip")
	}
}

func TestMachineJSONCustomTopology(t *testing.T) {
	topo, err := Custom("oddnet", 3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New("custom", topo, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "edges") {
		t.Errorf("custom topology should serialise edges: %s", data)
	}
	var back Machine
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumPE() != 3 || back.Topo.Hops(0, 2) != 2 {
		t.Errorf("custom topology lost: %v", back.Topo)
	}
}

// A custom machine is written back as its edges whatever it is named:
// its topology, "<name>-net", once read as "ring:net" (which does not
// parse) or as "tree:2x3" (a different network).
func TestMachineJSONCustomNamedLikeBuiltin(t *testing.T) {
	for _, name := range []string{"ring", "tree-b2-l3"} {
		m := decodeMachine(t, `{"name":"`+name+`","n":7,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6]],"params":{"ProcSpeed":1}}`)
		if spec := m.Topo.Spec(); spec != "" {
			t.Errorf("%s: custom topology %q has spec %q", name, m.Topo.Name, spec)
		}
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		back := decodeMachine(t, string(data))
		for p := 0; p < 7; p++ {
			for q := 0; q < 7; q++ {
				if got, want := back.Topo.Hops(p, q), m.Topo.Hops(p, q); got != want {
					t.Fatalf("%s: round trip via %s: Hops(%d,%d) = %d, want %d", name, data, p, q, got, want)
				}
			}
		}
		if back.Topo.Hops(0, 6) != 6 {
			t.Errorf("%s: Hops(0,6) = %d after the round trip, want 6", name, back.Topo.Hops(0, 6))
		}
	}
}

// Two machines read from one spec share one topology, and with it its
// routing tables; a spelling of the same spec shares it too. A
// custom topology is its own.
func TestDecodedTopologyInterned(t *testing.T) {
	doc := func(topo string) *Machine {
		return decodeMachine(t, `{"name":"m",`+topo+`,"params":{"ProcSpeed":1}}`)
	}
	a, b, c := doc(`"topology":"ring:12"`), doc(`"topology":"ring:012"`), doc(`"topology":"ring:13"`)
	if a.Topo != b.Topo {
		t.Error("two machines decoded from ring:12 hold different topologies")
	}
	if a.Topo == c.Topo {
		t.Error("ring:12 and ring:13 share a topology")
	}
	if p, err := ParseTopology("ring:12"); err != nil || p != a.Topo {
		t.Errorf("ParseTopology(ring:12) = %p, %v; decoded %p", p, err, a.Topo)
	}
	if r, _ := Ring(12); r == a.Topo || r.Spec() != "ring:12" {
		t.Errorf("Ring(12) = %p with spec %q; a constructor builds its own and records its spec", r, r.Spec())
	}
	edges := `"n":3,"edges":[[0,1],[1,2]]`
	if doc(edges).Topo == doc(edges).Topo {
		t.Error("custom topologies are interned")
	}
}

func TestTopologyASCIIAndDOT(t *testing.T) {
	mesh, _ := Mesh(2, 3)
	s := mesh.ASCII()
	for _, want := range []string{"[ 0]", "[ 5]", "--", "|"} {
		if !strings.Contains(s, want) {
			t.Errorf("mesh ASCII missing %q:\n%s", want, s)
		}
	}
	hc, _ := Hypercube(2)
	s = hc.ASCII()
	if !strings.Contains(s, "PE0") || !strings.Contains(s, "PE3") {
		t.Errorf("hypercube ASCII:\n%s", s)
	}
	dot := hc.DOT()
	if !strings.Contains(dot, "graph") || !strings.Contains(dot, "0 -- 1") {
		t.Errorf("DOT:\n%s", dot)
	}
	torus, _ := Torus(2, 2)
	if s := torus.ASCII(); !strings.Contains(s, "wrap") {
		t.Errorf("torus ASCII missing wrap note:\n%s", s)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(42).String(); got != "42us" {
		t.Errorf("Time.String = %q", got)
	}
}

// ParseTopology must reject garbage without panicking.
func TestParseTopologyNeverPanics(t *testing.T) {
	f := func(spec string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", spec, r)
				ok = false
			}
		}()
		_, _ = ParseTopology(spec)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Degenerate-but-wellformed specs.
	for _, spec := range []string{"hypercube:0", "mesh:1x1", "full:1", "tree:1x1", "hypercube:-1", "mesh:0x5", "star:-3"} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", spec, r)
				}
			}()
			_, _ = ParseTopology(spec)
		}()
	}
}
