package hot

import "fmt"

var keep func() int

func eat(v any) { _ = v }

func fresh() []int { return nil }

// bad commits every construct the analyzer forbids in a hot body, one
// per line.
//
//simlint:hotpath
func bad(k int) any {
	local := []int{}              // want "slice/map literal on a hot path"
	local = append(local, k)      // want "append onto local, which is not parameter- or receiver-rooted"
	_ = append(fresh(), k)        // want "append onto a non-parameter slice"
	fmt.Println(k)                // want "fmt.Println call on a hot path"
	cb := func() int { return k } // want "closure may escape"
	keep = cb                     // the non-call use that makes the literal above escape
	eat(k)                        // want "concrete value boxed into interface parameter"
	var boxed any = k             // want "concrete value boxed into interface any in declaration"
	_ = boxed
	boxed = k  // want "concrete value boxed into interface any on assignment"
	_ = any(k) // want "conversion boxes concrete value into interface"
	return k   // want "concrete value boxed into interface return"
}

type node struct{ next *node }

// allocs holds the allocating constructs that need no callee to reach
// the allocator.
//
//simlint:hotpath
func allocs(n int, s string) (*node, []int, string) {
	buf := make([]int, n) // want "make on a hot path"
	nd := &node{}         // want "&composite literal on a hot path"
	s = s + "!"           // want "string concatenation on a hot path"
	b := []byte(s)        // want "string conversion on a hot path"
	go eat(b)             // want "go statement on a hot path" "concrete value boxed into interface parameter"
	return nd, buf, s
}

// cold is the un-annotated escape valve: the same constructs are fine
// off the hot path (no want comments).
func cold(k int) any {
	fmt.Println(k)
	local := []int{}
	local = append(local, k)
	return local
}
