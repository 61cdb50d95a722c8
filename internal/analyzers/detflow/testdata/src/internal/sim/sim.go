// Package sim is a detflow fixture standing in for the real simulation
// packages: its import path (internal/sim) puts it in Scope, and no
// function here is reachable from an output sink.
package sim

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// wallClock: host time is forbidden in simulation code.
func wallClock() time.Time {
	return time.Now() // want "time.Now in simulation code"
}

// globalDraw: package-level math/rand functions share process state.
func globalDraw() int {
	return rand.Intn(6) // want "global math/rand.Intn draws from shared process-wide state"
}

// seededDraw: explicit generators and their methods are fine.
func seededDraw() float64 {
	r := rand.New(rand.NewSource(7))
	return r.Float64()
}

// sumMap: bare map iteration is flagged.
func sumMap(m map[string]int) int {
	t := 0
	for _, v := range m { // want "map iteration order can reach simulation state"
		t += v
	}
	return t
}

// sumMapAllowed: the same reduction under an allow annotation is not.
func sumMapAllowed(m map[string]int) int {
	t := 0
	//simlint:allow detflow commutative sum, order-insensitive
	for _, v := range m {
		t += v
	}
	return t
}

// firstKey: an unsorted maps.Keys read is flagged in Scope packages too.
func firstKey(m map[string]int) string {
	for k := range maps.Keys(m) { // want "unsorted map-key read can reach simulation state"
		return k
	}
	return ""
}

// sortedKeys: the sorted forms need no annotation.
func sortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return append(out, slices.Sorted(maps.Keys(m))...)
}

// concurrency: goroutines and select leak runtime scheduling order.
func concurrency(c chan int) int {
	go send(c) // want "go statement in a simulation package"
	select {   // want "select statement in a simulation package"
	case v := <-c:
		return v
	default:
	}
	return 0
}

func send(c chan int) { c <- 1 }
