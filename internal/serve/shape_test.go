package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// errorReply is the 4xx body that says msg.
func errorReply(t *testing.T, msg string) string {
	t.Helper()
	b, err := json.Marshal(map[string]string{"error": msg})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestServeKnownShapeRefusals: with the diamond's shape, and so its ids,
// interned by an earlier request, every document graph.FromDoc refuses
// gets the 400 it got before the server read shape keys, and negative
// work the 422.
func TestServeKnownShapeRefusals(t *testing.T) {
	ts := httptest.NewServer(New(Options{DefaultAlg: "etf"}).Handler())
	defer ts.Close()
	docBytes, err := json.Marshal(testProject(t, 10, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(docBytes)
	for _, c := range []struct {
		name, from, to string
		status         int
		want           string
	}{
		{"unknown kind", `"kind":"task"`, `"kind":"bogus"`, 400, `parsing project: graph "diamond": unknown node kind "bogus"`},
		{"duplicate id", `"id":"b"`, `"id":"a"`, 400, `parsing project: graph "diamond": duplicate node id "a"`},
		{"dangling arc", `"from":"c"`, `"from":"zz"`, 400, `parsing project: graph "diamond": arc source "zz" not found`},
		{"subgraph on a task", `"kind":"task"`, `"kind":"task","sub":{"name":"inner","nodes":[],"arcs":[]}`, 400, `parsing project: graph "diamond": task node "a" carries a subgraph`},
		{"sub node without subgraph", `"kind":"task"`, `"kind":"sub"`, 400, `parsing project: graph "diamond": sub node "a" missing subgraph`},
		{"negative words", `"words":1`, `"words":-1`, 400, `parsing project: graph "diamond": arc IN->a has negative words -1`},
		{"negative work", `"work":10`, `"work":-10`, 422, `opening project: project "diamond": graph "diamond": task "a" has negative work`},
	} {
		if status, reply := postRaw(t, ts.URL, doc, false); status != http.StatusOK {
			t.Fatalf("the diamond itself: %d %s", status, reply)
		}
		body := strings.Replace(doc, c.from, c.to, 1)
		if body == doc {
			t.Fatalf("%s: %s is not in the document", c.name, c.from)
		}
		if status, reply := postRaw(t, ts.URL, body, false); status != c.status || reply != errorReply(t, c.want) {
			t.Errorf("%s: %d %s, want %d %s", c.name, status, reply, c.status, errorReply(t, c.want))
		}
	}
}

// TestServeModelTimeBounds: a design or machine whose numbers could
// overflow model time is refused, naming the arc, task or parameter,
// where the prediction used to wrap (a 200 with a two-microsecond
// makespan, or a 422 blaming MH for a negative interval). The work
// bound holds on a known shape too.
func TestServeModelTimeBounds(t *testing.T) {
	ts := httptest.NewServer(New(Options{DefaultAlg: "mh"}).Handler())
	defer ts.Close()
	design := func(work, words int64, wordTime string) string {
		return fmt.Sprintf(`{"name":"two","design":{"name":"two","nodes":[`+
			`{"id":"a","kind":"task","work":%d},{"id":"b","kind":"task","work":1}],`+
			`"arcs":[{"from":"a","to":"b","var":"v","words":%d}]},`+
			`"machine":{"name":"r4","topology":"ring:4","params":{"ProcSpeed":1,"TaskStartup":1,"MsgStartup":5,"WordTime":%s}}}`,
			work, words, wordTime)
	}
	for _, c := range []struct {
		name, body string
		status     int
		want       string
	}{
		{"words", design(1, math.MaxInt64, "1"), 400, `parsing project: graph "two": arc a->b has 9223372036854775807 words, more than 1048576`},
		{"work", design(math.MaxInt64, 1, "1"), 422, `opening project: project "two": graph "two": task "a" has work 9223372036854775807, more than 274877906944`},
		{"word time", design(1, 1, "9223372036854775807"), 400, `parsing project: machine params: WordTime 9223372036854775807 is more than 256`},
	} {
		if status, reply := postRaw(t, ts.URL, design(1, 1, "1"), false); status != http.StatusOK {
			t.Fatalf("the design in bounds: %d %s", status, reply)
		}
		if status, reply := postRaw(t, ts.URL, c.body, false); status != c.status || reply != errorReply(t, c.want) {
			t.Errorf("%s: %d %s, want %d %s", c.name, status, reply, c.status, errorReply(t, c.want))
		}
	}
}

// TestServeKnownShapeAnswersAsBuilt: a run posted first with a shape
// no request has used builds the design; the same design re-indented,
// then with other weights, binds the shape. Each is answered as the
// design built from scratch is, but for the cache verdict and the clock.
func TestServeKnownShapeAnswersAsBuilt(t *testing.T) {
	p := testProject(t, 10, 1, 3)
	p.Design.Name = "diamond-known-shape"
	cold, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, cold, "", "  "); err != nil {
		t.Fatal(err)
	}
	reweighed := strings.Replace(string(cold), `"work":10`, `"work":11`, 1)
	elapsed := regexp.MustCompile(`"elapsed_us":\d+`)
	post := func(url, body string) string {
		resp, err := http.Post(url+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b.String())
		}
		return elapsed.ReplaceAllString(b.String(), `"elapsed_us":0`)
	}
	ts := httptest.NewServer(New(Options{DefaultAlg: "etf", Virtual: true}).Handler())
	defer ts.Close()
	first := post(ts.URL, string(cold))
	if got := post(ts.URL, indented.String()); got != strings.Replace(first, `"cache":"miss"`, `"cache":"hit"`, 1) {
		t.Errorf("re-indented: %s, want %s with a hit", got, first)
	}
	// The reweighed design binds the interned shape and misses the
	// schedule cache. A fresh server given the same design under a design
	// name no request has used builds it, and answers alike.
	bound := post(ts.URL, reweighed)
	fresh := httptest.NewServer(New(Options{DefaultAlg: "etf", Virtual: true}).Handler())
	defer fresh.Close()
	p.Design.Name = "diamond-known-shape-cold"
	p.Design.Node("a").Work = 11
	built, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := post(fresh.URL, string(built)); bound != want {
		t.Errorf("reweighed: %s, want %s", bound, want)
	}
}
