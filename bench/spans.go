package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call, recorded from outside the program around a
// call into a layer's public functions. Spans of one request share
// request_id; parent is the id of the span that caused this one, or -1.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Request int64   `json:"request_id"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the recorder started
	EndUS   float64 `json:"end_us"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) us(t time.Time) float64 { return float64(t.Sub(r.t0)) / float64(time.Microsecond) }

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent int, request int64, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name,
		StartUS: r.us(start), EndUS: r.us(end)})
	return id
}

// open starts a span whose children need its id before it ends.
func (r *recorder) open(name string, parent int, request int64) int {
	now := time.Now()
	return r.add(name, parent, request, now, now)
}

func (r *recorder) close(id int) {
	end := r.us(time.Now())
	r.mu.Lock()
	r.spans[id].EndUS = end
	r.mu.Unlock()
}

// timed records f as a child span of parent.
func (r *recorder) timed(name string, parent int, request int64, f func()) {
	start := time.Now()
	f()
	r.add(name, parent, request, start, time.Now())
}

// ms returns the durations of every span called name, in milliseconds.
func (r *recorder) ms(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var d []float64
	for _, s := range r.spans {
		if s.Name == name {
			d = append(d, (s.EndUS-s.StartUS)/1000)
		}
	}
	return d
}

// flush writes the spans to dir/<workload>.trace.json.
func (r *recorder) flush(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
