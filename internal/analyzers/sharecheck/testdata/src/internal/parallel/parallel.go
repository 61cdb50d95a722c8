// Package parallel is a fixture stand-in for the module's parallel
// runner: sharecheck recognizes its entry points by package-path suffix
// and name, and treats their func-literal arguments as worker closures.
package parallel

import "context"

// Map mirrors the runner's signature: fn runs on worker goroutines.
func Map(workers, n int, fn func(worker, index int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i%workers, i); err != nil {
			return err
		}
	}
	return nil
}

// ReduceContext mirrors the streaming runner: fn runs on worker
// goroutines and fold receives each result in index order.
func ReduceContext[T any](ctx context.Context, workers, n int,
	fn func(worker, index int) (T, error), fold func(index int, v T)) error {
	for i := 0; i < n; i++ {
		v, err := fn(i%workers, i)
		if err != nil {
			return err
		}
		fold(i, v)
	}
	return nil
}
