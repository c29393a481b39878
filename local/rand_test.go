package local

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oracleSource is math/rand's own source, counting the draws it has served
// since its last Seed.
type oracleSource struct {
	rand.Source64
	drawn int
}

func (s *oracleSource) Uint64() uint64 {
	s.drawn++
	return s.Source64.Uint64()
}

func (s *oracleSource) Int63() int64 {
	s.drawn++
	return s.Source64.Int63()
}

func (s *oracleSource) Seed(seed int64) {
	s.drawn = 0
	s.Source64.Seed(seed)
}

// FuzzCtxRandStream compares Ctx.Rand with rand.New(rand.NewSource(seed))
// under a script of mixed calls. Script byte b picks the call by b%7:
// Uint64, Int63, Intn below 2³¹, Intn above 2³¹, Float64, Perm, or a
// mid-stream Seed. The script repeats, with Seed turned into Uint64 after
// the first pass, until the stream has run past the lazily served draws.
// The seed corpus covers every edge of math/rand's seed reduction.
func FuzzCtxRandStream(f *testing.F) {
	script := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0x7a, 0x81, 0xfa, 0xff}
	for _, seed := range []int64{0, 1, -1, lehmerMod, -lehmerMod, 1 << 31, zeroSeed, math.MinInt64, math.MaxInt64} {
		f.Add(seed, script)
	}
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		// With run seed 0, a node's stream seed is its ID.
		c := Ctx{id: int(seed), net: &Network{}}
		got := c.Rand()
		oracle := &oracleSource{Source64: rand.NewSource(seed).(rand.Source64)}
		want := rand.New(oracle)
		for i := 0; i < len(script) || oracle.drawn <= lazyDraws; i++ {
			var b byte
			if len(script) > 0 {
				b = script[i%len(script)]
			}
			op := b % 7
			if op == 6 && i >= len(script) {
				op = 0
			}
			var g, w uint64
			switch op {
			case 0:
				g, w = got.Uint64(), want.Uint64()
			case 1:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			case 2:
				n := 1 + int(b>>3)
				g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
			case 3:
				n := math.MaxInt/4*3 - int(b)
				g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
			case 4:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 5:
				n := 2 + int(b>>4)
				if gp, wp := got.Perm(n), want.Perm(n); !slices.Equal(gp, wp) {
					t.Fatalf("seed %d, step %d: Perm(%d) = %v, want %v", seed, i, n, gp, wp)
				}
			case 6:
				got.Seed(seed + int64(b))
				want.Seed(seed + int64(b))
			}
			if g != w {
				t.Fatalf("seed %d, step %d (op %d): got %d, want %d", seed, i, op, g, w)
			}
		}
	})
}

// TestCtxRandDrawsAllocFree: once Ctx.Rand has built the generator, 200
// draws allocate nothing (Seed rewinds the stream between runs).
func TestCtxRandDrawsAllocFree(t *testing.T) {
	c := Ctx{id: 7, net: &Network{seed: 3}}
	r := c.Rand()
	allocs := testing.AllocsPerRun(5, func() {
		r.Seed(3*1_000_003 + 7)
		for range 100 {
			r.Uint64()
			r.Intn(1000)
		}
	})
	if allocs != 0 {
		t.Fatalf("200 draws allocated %.1f times per run, want 0", allocs)
	}
}

var randSink uint64

// BenchmarkCtxRand measures a node's randomness as a protocol pays for it
// in one run: the first Ctx.Rand call plus three draws.
func BenchmarkCtxRand(b *testing.B) {
	b.ReportAllocs()
	c := Ctx{net: &Network{seed: 1}}
	var sink uint64
	for b.Loop() {
		c.id++
		c.rng = nil
		r := c.Rand()
		sink += r.Uint64() + uint64(r.Intn(4)) + uint64(r.Int63())
	}
	randSink = sink
}
