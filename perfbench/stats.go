package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// which it sorts in place. +Inf entries (failed requests) sort last, so
// a failure counts as missing every latency limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ladder is the fixed geometric rate ladder of an open-loop workload:
// rung k offers base*ratio^k requests per second, for k in [0, top].
type ladder struct {
	base, ratio float64
	top         int
}

// maxGallop is the largest stride of a search, in rungs.
const maxGallop = 8

func (l ladder) rate(k int) float64 { return l.base * math.Pow(l.ratio, float64(k)) }

// search returns the highest rung that passes, probing rungs with try.
// It probes k0 first, gallops away from it (steps of step, doubling up
// to maxGallop rungs) until the verdict flips, then bisects the
// bracket; the cap keeps a search from offering many times the
// capacity. It returns -1 when
// rung 0 fails, and stops early with the best pass so far and ok false
// when try reports that the time budget ran out.
func (l ladder) search(k0, step int, try func(k int) (pass, ok bool)) (best int, ok bool) {
	lo, hi := -1, l.top+1 // highest pass, lowest fail seen
	probe := func(k int) (bool, bool) {
		pass, ok := try(k)
		if ok && pass {
			lo = k
		} else if ok {
			hi = k
		}
		return pass, ok
	}
	k := min(max(k0, 0), l.top)
	first, ok := probe(k)
	if !ok {
		return lo, false
	}
	dir := 1
	if !first {
		dir = -1
	}
	for s := step; ; s = min(2*s, maxGallop) {
		next := min(max(k+dir*s, 0), l.top)
		if next == k {
			break
		}
		k = next
		pass, ok := probe(k)
		if !ok {
			return lo, false
		}
		if pass != first {
			break
		}
	}
	for hi-lo > 1 {
		if _, ok := probe((lo + hi) / 2); !ok {
			return lo, false
		}
	}
	return lo, true
}

// verdictLatency is the verdict of a rung that failed on p99 alone.
const verdictLatency = "p99 over limit"

// rungStats is what the capacity verdict needs from one rung.
type rungStats struct {
	sent, failed           int
	p99ms                  float64
	backlogMid, backlogEnd int
	aborted                bool
}

// verdict decides whether a rung meets the workload's latency limit:
// p99 (failures counted as infinitely late) under limitMs, failures
// under 1% of sent, and a backlog that did not grow between the middle
// and the end of the rung by more than the requests the connections and
// the latency limit can hold.
func verdict(s rungStats, rate, limitMs float64, conns int) (bool, string) {
	switch {
	case s.aborted:
		return false, "backlog overflow"
	case s.sent == 0:
		return false, "nothing sent"
	case float64(s.failed) >= 0.01*float64(s.sent):
		return false, "failures >= 1%"
	case s.p99ms > limitMs:
		return false, verdictLatency
	case float64(s.backlogEnd-s.backlogMid) > float64(conns)+rate*limitMs/1000:
		return false, "backlog grew"
	}
	return true, "pass"
}

// rung returns the highest rung offering at most rate.
func (l ladder) rung(rate float64) int {
	k := int(math.Floor(math.Log(rate/l.base)/math.Log(l.ratio) + 1e-9))
	return min(max(k, 0), l.top)
}

// point is one rung's pooled measurement; p99 is +Inf for a rung that
// failed for any other reason than latency.
type point struct{ rate, p99 float64 }

// bracket returns the points capacity is interpolated between: the
// search's answer c, then the lowest rung above it whose pooled result
// fails, if one was run. A rung below c is left out even when an
// earlier search left a failing result there, so the crossing is
// anchored at the answer. If c itself no longer passes (a last search,
// cut short by the deadline, re-ran it), the anchor is the highest
// passing rung below c.
func bracket(pts map[int]point, c int, limit float64) []point {
	a := c
	for k := c; k >= 0; k-- {
		if p, ok := pts[k]; ok && p.p99 <= limit {
			a = k
			break
		}
	}
	out := []point{pts[a]}
	above := -1
	for k, p := range pts {
		if k > a && p.p99 > limit && (above < 0 || k < above) {
			above = k
		}
	}
	if above >= 0 {
		out = append(out, pts[above])
	}
	return out
}

// crossing returns the rate at which p99 reaches limit, interpolated
// linearly between the highest passing rung and the first failing one
// above it. pts are sorted by rate. When every rung passes it returns
// the highest rate; when none does, the lowest rate scaled by how far
// its p99 overshoots.
func crossing(pts []point, limit float64) float64 {
	for j, q := range pts {
		if q.p99 <= limit {
			continue
		}
		if j == 0 {
			if math.IsInf(q.p99, 1) {
				return q.rate / 2
			}
			return q.rate * limit / q.p99
		}
		p := pts[j-1]
		if math.IsInf(q.p99, 1) {
			return p.rate
		}
		return p.rate + (q.rate-p.rate)*(limit-p.p99)/(q.p99-p.p99)
	}
	return pts[len(pts)-1].rate
}
