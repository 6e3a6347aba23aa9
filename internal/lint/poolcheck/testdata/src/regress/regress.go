// Package regress pins callee resolution through generic functions: a
// release (or a pool source) reached through f[T](…) — explicitly
// instantiated — must be seen exactly like one reached through the
// inferred f(…). CallGraph.Callee once resolved only plain identifiers
// and selectors, so an IndexExpr in call position read as "dynamic call"
// and everything behind it went dark; the transport's typed-RPC stub
// layer is generic, which is what made the gap matter.
package regress

import "sync"

var pool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

func getBuf() []byte {
	b := pool.Get().(*[]byte)
	return (*b)[:0]
}

func putBuf(b []byte) {
	b = b[:0]
	pool.Put(&b)
}

// recycle is a generic release: it hands buf to the pool whatever T is.
func recycle[T any](tag T, buf []byte) T {
	putBuf(buf)
	return tag
}

// recyclePair is the two-parameter spelling (an IndexListExpr when
// instantiated explicitly).
func recyclePair[K comparable, V any](k K, v V, buf []byte) {
	putBuf(buf)
}

// inferred is the shape that always resolved.
func inferred(data []byte) int {
	buf := append(getBuf(), data...)
	recycle("tag", buf)
	return len(buf) // want "buf is used after being returned to the pool"
}

// explicit spells the type argument out: same release, same finding.
func explicit(data []byte) int {
	buf := append(getBuf(), data...)
	recycle[string]("tag", buf)
	return len(buf) // want "buf is used after being returned to the pool"
}

// explicitPair instantiates two parameters.
func explicitPair(data []byte) {
	buf := append(getBuf(), data...)
	recyclePair[string, int]("k", 1, buf)
	putBuf(buf) // want "buf is returned to the pool twice"
}

// table is a slice of funcs: indexing it is not an instantiation and
// stays a dynamic call — no release is known, nothing fires.
var table = []func([]byte){putBuf}

func dynamic(data []byte) int {
	buf := append(getBuf(), data...)
	table[0](buf)
	return len(buf)
}
