package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
)

// Everything the program under test sees is generated here from the
// seed: the op plan (which actor issues which op on which object), the
// Zipf draws inside it, and the content bytes. The generator is its own
// splitmix64 rather than internal/sim's so that a change to the program
// can never change the inputs it is measured on.

type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix derives an independent stream seed from a run seed and a label,
// so actors, repetitions and objects never share draws.
func mix(seed uint64, label string, n int) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 0x100000001b3
	}
	return newRNG(h + uint64(n)*0x9e3779b97f4a7c15).next()
}

// zipf draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^s from a cumulative
// table; unlike math/rand's it accepts s = 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// opKind names what a sample times: the navigator-level ops first, then
// the derived timings the actors observe beside them.
type opKind uint8

const (
	opRegister opKind = iota
	opLogin
	opCourses
	opSearch
	opTree
	opRead
	opEnroll
	opOpen
	opPlay
	opStream
	opBookmark
	opExit
	opProbe
	opWrite
	// Observations, not ops: they time part of an op or the generator.
	obsSession
	obsFirstChunk
	obsChunkGap
	obsLate
	obsConverge
	numKinds
)

var kindNames = [numKinds]string{
	"register", "login", "courses", "search", "tree", "read", "enroll", "open",
	"play", "stream", "bookmark", "exit", "probe", "write",
	"session", "first_chunk", "chunk_gap", "late", "converge",
}

func (k opKind) String() string { return kindNames[k] }

// planOp is one pre-drawn step of an actor: what to do and on which
// objects (indices into the workload's stocked tables).
type planOp struct {
	Kind    opKind
	A, B, C uint32
}

// plan is the op sequence of every actor for one repetition. Actors
// walk their ring from the start and wrap; a closed loop consumes as
// much of it as the system's speed allows.
type plan struct {
	Workload string
	Seed     uint64
	Actors   [][]planOp
}

// encode renders the plan as CSV (actor,step,kind,a,b,c) — the form
// written to the results directory and compared byte for byte by the
// determinism test.
func (p *plan) encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# workload=%s seed=%d\nactor,step,kind,a,b,c\n", p.Workload, p.Seed)
	for a, ops := range p.Actors {
		for i, op := range ops {
			fmt.Fprintf(&b, "%d,%d,%s,%d,%d,%d\n", a, i, op.Kind, op.A, op.B, op.C)
		}
	}
	return b.Bytes()
}

// Content is self-verifying: an object's bytes are a function of
// (seed, ref, version), the version rides in the first four bytes, and
// the publisher keeps the digest, so a reader can tell which version it
// got and that every byte of it is what was published.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func digest(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// crcUpdate extends a running digest; digest(a+b) == crcUpdate(digest(a), b).
func crcUpdate(crc uint32, data []byte) uint32 { return crc32.Update(crc, castagnoli, data) }

// contentSeed is the per-(ref, version) generator seed, also handed to
// media.EncodeMPEG for clips.
func contentSeed(seed uint64, ref string, version uint32) uint64 {
	return mix(seed, ref, int(version))
}

// makeContent fills n ≥ 4 bytes for (ref, version).
func makeContent(seed uint64, ref string, version uint32, n int) []byte {
	data := make([]byte, n+8)
	r := newRNG(contentSeed(seed, ref, version))
	for off := 0; off < n; off += 8 {
		binary.LittleEndian.PutUint64(data[off:], r.next())
	}
	data = data[:n]
	binary.BigEndian.PutUint32(data, version)
	return data
}

// contentVersion reads the version header back.
func contentVersion(data []byte) uint32 {
	if len(data) < 4 {
		return 0
	}
	return binary.BigEndian.Uint32(data)
}
