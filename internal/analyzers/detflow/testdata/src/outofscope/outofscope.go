// Package outofscope uses every construct detflow forbids in Scope
// packages, but its import path is outside Scope and no output sink
// reaches it, so the analyzer must stay silent (no want comments: any
// diagnostic fails the test).
package outofscope

import (
	"math/rand"
	"time"
)

// Sample is tooling-style code where host time, shared RNG state, and
// map iteration are all harmless.
func Sample(m map[int]int) (time.Time, int) {
	t := 0
	for _, v := range m {
		t += v
	}
	go func() { _ = t }()
	return time.Now(), rand.Intn(3) + t
}
