package hotcalls

// No want comments in this file: every construct here must stay silent.

// fill appends onto caller-provided storage only — its summary is
// clean, so hot callers may use it freely.
func fill(buf []int, n int) []int {
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	return buf
}

// coldPanic is deliberately off the steady-state path; the reason makes
// the annotation effective.
//
//simlint:cold panic formatting is unreachable in steady state
func coldPanic(code int) {
	panic("bad state: " + string(rune('0'+code)))
}

// hotLeaf is policed at its own annotation; edges into it are trusted.
//
//simlint:hotpath
func hotLeaf(buf []int) int {
	return len(buf)
}

// sumTo is unannotated and binds a call-only local literal — the
// routing engine's consider pattern, which the compiler keeps on the
// stack — so its summary stays clean.
func sumTo(n int) int {
	total := 0
	add := func(d int) { total += d }
	for i := 0; i < n; i++ {
		add(i)
	}
	return total
}

// okHot exercises every silent edge: a clean helper, a helper with a
// call-only literal, a cold-with-reason helper, another hot function,
// and an allowed call site.
//
//simlint:hotpath
func okHot(buf []int, n int) int {
	buf = fill(buf, n)
	n += sumTo(n)
	if n < 0 {
		coldPanic(n)
	}
	total := hotLeaf(buf)
	total += len(grow(n)) //simlint:allow hotcall warm-up branch runs once per campaign
	return total
}
