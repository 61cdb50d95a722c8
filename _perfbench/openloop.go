package main

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// dueTimes schedules the plan at `rate` distinct requests per second: a
// duplicate shares its original's slot, so it arrives back to back with
// it and can ride the same execution.
func dueTimes(ops []op, rate float64) []time.Duration {
	due := make([]time.Duration, len(ops))
	slot := -1
	for i, o := range ops {
		if o.Kind != "dup" || slot < 0 {
			slot++
		}
		due[i] = time.Duration(float64(slot) / rate * float64(time.Second))
	}
	return due
}

// answer is one HTTP reply.
type answer struct {
	Status int
	Hash   string
}

// sender performs one request on behalf of worker `conn`.
type sender func(conn int, o op) answer

// bodyHash fingerprints a response body.
func bodyHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])[:16]
}

// openLoop sends ops at their due times over `conns` workers. Workers take
// requests strictly in plan order and wait for each one's due time, so a
// request is sent at its due time or as soon as a connection frees up,
// whichever is later, and its latency counts from the due time.
// span, when non-nil, observes each request (the traced run).
func openLoop(ops []op, due []time.Duration, conns int, send sender,
	span func(conn, i int, sent, done time.Time, a answer)) ([]record, []answer) {

	recs := make([]record, len(ops))
	ans := make([]answer, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				if d := time.Until(t0.Add(due[i])); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				a := send(c, ops[i])
				done := time.Now()
				if span != nil {
					span(c, i, sent, done, a)
				}
				recs[i] = record{Due: due[i], Sent: sent.Sub(t0), Done: done.Sub(t0), Valid: ops[i].Valid()}
				ans[i] = a
			}
		}(c)
	}
	wg.Wait()
	return recs, ans
}

// checkAnswers marks failed records: a status other than the expected one
// (400 for malformed bodies, 200 otherwise), or a valid body whose hash
// differs from the hash first seen for the same request, so that a
// duplicate must match its original byte for byte.
func checkAnswers(ops []op, recs []record, ans []answer) (failed int) {
	want := map[string]string{} // request body → first answer's hash
	for i, o := range ops {
		a := ans[i]
		ok := a.Status == http.StatusOK
		if !o.Valid() {
			ok = a.Status == http.StatusBadRequest
		} else if ok {
			if h, seen := want[string(o.Body)]; seen {
				ok = h == a.Hash
			} else {
				want[string(o.Body)] = a.Hash
			}
		}
		if !ok {
			recs[i].Failed = true
			failed++
		}
	}
	return failed
}
