// Package par is a fixture stub declared under the real package's
// import path so sharecap's entrypoint matching resolves identically
// in tests. The stubs run the closures serially; only the signatures
// matter to the analyzer.
package par

import "context"

func ForEach(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func ForEachCtx(ctx context.Context, n int, fn func(int)) error {
	for i := 0; i < n; i++ {
		fn(i)
	}
	return ctx.Err()
}
