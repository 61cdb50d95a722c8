package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one or two unlucky requests, not a
// percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// how many samples lie strictly beyond its rank. xs need not be sorted;
// +Inf entries (failed operations) sort last, so a failure always counts
// as exceeding whatever the percentile is compared against.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// tail returns the q-quantile of xs, or an error when fewer than
// minBeyond samples lie beyond it (the run was sized too small to
// report that percentile).
func tail(xs []float64, q float64) (float64, error) {
	v, beyond := percentile(xs, q)
	if beyond < minBeyond {
		return v, fmt.Errorf("p%g of %d samples has %d beyond it, need %d",
			100*q, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// median returns the middle value of xs (mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// record is one open-loop operation: when it was due, when it was
// actually sent and when its answer arrived, all as offsets from the
// start of its rung. Failed marks a wrong status, a transport error or
// a wrong answer.
type record struct {
	Due, Sent, Done time.Duration
	Valid           bool // a query expected to succeed (not a malformed body)
	Failed          bool
}

// Latency is the time from when the operation was due to its answer:
// a stalled generator or server delays every later request, and timing
// from the due time charges that wait to them. A failed operation has
// infinite latency, so it misses every limit.
func (r record) Latency() float64 {
	if r.Failed {
		return math.Inf(1)
	}
	return (r.Done - r.Due).Seconds() * 1e3
}

// Lag is how late the generator sent the operation, in milliseconds.
func (r record) Lag() float64 { return (r.Sent - r.Due).Seconds() * 1e3 }

// rungResult summarizes one rate on the ladder.
type rungResult struct {
	P50, P90 float64 // valid-query latency, ms
	Failed   int
	Backlog  bool // lag grew across the rung: the generator fell behind
	TailErr  error
}

// pass reports whether the rung meets the latency limit with no growing
// backlog and no failures.
func (r rungResult) pass(limitMS float64) bool {
	return r.TailErr == nil && r.Failed == 0 && !r.Backlog && r.P90 <= limitMS
}

// summarize computes a rung's latency percentiles over its valid
// queries and decides whether its backlog grew. The backlog grew when
// the median generator lag over the last quarter of the rung exceeds
// the first quarter's by more than the latency limit:
// below capacity the lag returns to near zero between bursts, above it
// every request inherits its predecessors' delay.
func summarize(recs []record, limitMS float64) rungResult {
	var res rungResult
	var lat []float64
	for _, r := range recs {
		if r.Failed {
			res.Failed++
		}
		if r.Valid {
			lat = append(lat, r.Latency())
		}
	}
	res.P50 = median(lat)
	res.P90, res.TailErr = tail(lat, 0.90)
	q := len(recs) / 4
	if q > 0 {
		var first, last []float64
		for _, r := range recs[:q] {
			first = append(first, r.Lag())
		}
		for _, r := range recs[len(recs)-q:] {
			last = append(last, r.Lag())
		}
		res.Backlog = median(last) > median(first)+limitMS
	}
	return res
}

// ladder is a fixed geometric set of offered rates. Adjacent rungs
// differ by Ratio, so one run landing a rung higher or lower than
// another moves max_rate_qps by Ratio-1, inside the metric's bound.
type ladder struct {
	Base  float64 // lowest rung, operations per second
	Ratio float64
	Rungs int
}

// rate returns rung i's offered rate.
func (l ladder) rate(i int) float64 { return l.Base * math.Pow(l.Ratio, float64(i)) }

// highestPassing binary-searches the ladder for the highest rung that
// passes, assuming passing is monotone in the rate (a rung that fails
// makes every higher one fail). It returns -1 when even the lowest rung
// fails. probe evaluates one rung.
func (l ladder) highestPassing(probe func(i int) bool) int {
	lo, hi := -1, l.Rungs // lo passes (or is below the ladder), hi fails (or is above it)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// fifoReplay replays an open-loop arrival stream against `servers`
// identical FIFO servers using measured per-operation service times: the
// latency each operation would see, from its due time, had it arrived at
// due[i]. Operations start in order, each on the first server to free up
// — the discipline of openLoop's connections.
func fifoReplay(service, due []time.Duration, servers int) []record {
	free := make([]time.Duration, servers)
	recs := make([]record, len(service))
	for i, s := range service {
		k := 0
		for j := range free {
			if free[j] < free[k] {
				k = j
			}
		}
		start := max(due[i], free[k])
		free[k] = start + s
		recs[i] = record{Due: due[i], Sent: start, Done: free[k], Valid: true}
	}
	return recs
}
