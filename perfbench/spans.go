package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, made by the
// benchmark itself. Spans of one request share Req; Parent is the index
// of the span whose call caused this one (-1 for none).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, which is how untraced runs pay nothing.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its index.
func (r *recorder) add(name string, req int64, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return len(r.spans) - 1
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, req int64, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = int64(time.Since(r.t0))
}

// do runs f inside a span and returns the span's index.
func (r *recorder) do(name string, req int64, parent int, f func()) int {
	t := time.Now()
	f()
	return r.add(name, req, parent, t, time.Now())
}

// selfNS returns, per span named name, its duration minus the part of
// it covered by its child spans (the layer's own time).
func (r *recorder) selfNS(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.Name != name {
			continue
		}
		out = append(out, s.dur()-covered(s, children[i]))
	}
	return out
}

// durNS returns the durations of every span named name.
func (r *recorder) durNS(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// byReq returns the duration of the span named name for each request.
func (r *recorder) byReq(name string) map[int64]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int64]float64{}
	for _, s := range r.spans {
		if s.Name == name {
			out[s.Req] += s.dur()
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end int64 = 0, p.Start
	for _, k := range kids {
		s, e := max(k.Start, end), min(k.End, p.End)
		if e > s {
			total += e - s
			end = e
		}
	}
	return float64(total)
}

// write stores every span as JSON under path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
