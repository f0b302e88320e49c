package main

import (
	"fmt"
	"math/rand"
	"time"

	"sqlledger"
)

// gen is one client's input generator. Everything the database sees from
// that client is drawn from it: transaction types, keys, amounts, row
// filler and timestamps. It owns its random source (seeded from -seed
// and the client id), so the stream depends on nothing the system under
// test does, and it folds every drawn value into a fingerprint so two
// runs can prove they were fed the same inputs.
type gen struct {
	r     *rand.Rand
	fp    uint64
	pool  string
	clock int64
}

// fillerPoolSize is the length of the random text rows take their
// padding from. Slicing a shared pool costs one draw per string, where
// drawing each byte would make generation as expensive as the insert it
// feeds.
const fillerPoolSize = 1 << 16

// genEpoch is the fixed instant generated timestamps count up from, so
// DATETIME columns are inputs like any other and not wall-clock reads.
var genEpoch = time.Date(2021, 6, 20, 0, 0, 0, 0, time.UTC).UnixNano()

// newGen seeds a generator for one client of one workload.
func newGen(seed int64, workload string, client int) *gen {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 1099511628211
	}
	src := int64(mix64(uint64(seed)*0x9E3779B97F4A7C15 ^ h ^ uint64(client+1)<<32))
	g := &gen{r: rand.New(rand.NewSource(src)), clock: genEpoch}
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, fillerPoolSize)
	for i := range b {
		b[i] = letters[g.r.Intn(len(letters))]
	}
	g.pool = string(b)
	g.fp = mix64(uint64(src))
	return g
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// note folds a drawn value into the fingerprint.
func (g *gen) note(v int64) { g.fp = mix64(g.fp ^ uint64(v)) }

// uniform draws an integer in [lo, hi].
func (g *gen) uniform(lo, hi int) int64 {
	v := int64(lo + g.r.Intn(hi-lo+1))
	g.note(v)
	return v
}

// nonUniform is TPC-C's NURand(a, lo, hi) with C = a/2.
func (g *gen) nonUniform(a, lo, hi int) int64 {
	x := lo + g.r.Intn(hi-lo+1)
	y := g.r.Intn(a + 1)
	v := int64(((y|x)+a/2)%(hi-lo+1) + lo)
	g.note(v)
	return v
}

// filler returns n bytes of padding text.
func (g *gen) filler(n int) string {
	off := g.r.Intn(fillerPoolSize - n)
	g.note(int64(off)<<16 | int64(n))
	return g.pool[off : off+n]
}

// now returns the next generated timestamp (one microsecond per draw).
func (g *gen) now() sqlledger.Value {
	g.clock += 1000
	return sqlledger.DateTime(time.Unix(0, g.clock))
}

// fingerprint combines per-client fingerprints, in client order, into
// the workload's input fingerprint.
func fingerprint(gens []*gen) string {
	var h uint64
	for _, g := range gens {
		h = mix64(h ^ g.fp)
	}
	return fmt.Sprintf("%016x", h)
}
