package local

// Lazily seeded per-node randomness.
//
// Ctx.Rand hands every node a *rand.Rand whose stream is exactly that of
// rand.New(rand.NewSource(seed)). math/rand's source is an additive
// lagged-Fibonacci generator over a 607-word register, and seeding it fills
// the whole register with 1,841 Lehmer steps — yet a node draws only a
// handful of values per run. lazySource serves the same stream without
// filling the register:
//
//   - Draw k (1-based) returns register word 334−k plus word 607−k and
//     writes the sum back into word 334−k. Word 607−k is first written back
//     by draw k−273, so for k ≤ 273 both words still hold their seeded
//     values.
//   - Seeded word i is (x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ) ^ cooked[i], where
//     x_j = seed·48271^j mod (2³¹−1) and cooked is a fixed table. With the
//     powers 48271^j precomputed, each x_j is one multiplication.
//   - Draw 274 onwards comes from a real rand.NewSource, advanced past the
//     273 draws already served, so the stream stays exact for any length.
//
// The cooked table is not copied from the standard library: init recovers
// it from rand.NewSource(1)'s first 607 outputs, so exactness rests on the
// stream math/rand has kept frozen since Go 1.

import "math/rand"

const (
	rngLen    = 607       // register words of math/rand's source
	rngTap    = 273       // its lag
	lehmerMod = 1<<31 - 1 // modulus of the Lehmer steps that seed it
	lazyDraws = rngTap    // draws served before any word is written back
	int63Mask = 1<<63 - 1 // Int63 is Uint64 with the top bit cleared
	zeroSeed  = 89482311  // what rngSource.Seed substitutes for seed 0
)

// lazyWord is one register word of math/rand's source as a function of
// the seed: the powers of 48271 for its three Lehmer steps, and its fixed
// cooked mask.
type lazyWord struct {
	pow    [3]uint64
	cooked uint64
}

var lazyWords [rngLen]lazyWord

// value returns the word as rngSource.Seed(seed) initializes it, for a
// seed already reduced by reduceSeed (so each product stays below 2⁶²).
func (w *lazyWord) value(seed uint64) uint64 {
	return (seed*w.pow[0]%lehmerMod)<<40 ^ (seed*w.pow[1]%lehmerMod)<<20 ^ seed*w.pow[2]%lehmerMod ^ w.cooked
}

func init() {
	// Seeding discards 20 Lehmer steps, then spends three per word.
	x := uint64(1)
	for range 20 {
		x = x * 48271 % lehmerMod
	}
	for i := range lazyWords {
		for k := range lazyWords[i].pow {
			x = x * 48271 % lehmerMod
			lazyWords[i].pow[k] = x
		}
	}

	// Solve rand.NewSource(1)'s register from its first rngLen outputs.
	// Draw k adds the seeded word at (334−k) mod 607 to the word at 607−k;
	// from draw 274 on, the latter is draw k−273's output, written back.
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	var reg [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		reg[(2*rngLen-rngTap-k)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		reg[rngLen-rngTap-k] = out[k] - reg[rngLen-k]
	}
	// With cooked still zero, value(1) is seed 1's bare Lehmer word.
	for i := range lazyWords {
		lazyWords[i].cooked = reg[i] ^ lazyWords[i].value(1)
	}
}

// reduceSeed maps a seed to the Lehmer state rngSource.Seed starts from.
func reduceSeed(seed int64) uint64 {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return uint64(seed)
}

// lazySource is a rand.Source64 returning exactly the stream of
// rand.NewSource(seed), seeded in O(1). It is not safe for concurrent use,
// like the source it reproduces.
type lazySource struct {
	seed  uint64        // reduced by reduceSeed
	drawn int           // draws served lazily since the last Seed
	full  rand.Source64 // the real source, once the lazy draws run out
}

func newLazySource(seed int64) *lazySource {
	return &lazySource{seed: reduceSeed(seed)}
}

// Seed restarts the stream as rand.NewSource(seed) would.
func (s *lazySource) Seed(seed int64) {
	*s = lazySource{seed: reduceSeed(seed)}
}

// Uint64 returns the next value of the stream.
//
//deltacolor:hotpath
func (s *lazySource) Uint64() uint64 {
	k := s.drawn
	if k == lazyDraws {
		return s.fullUint64()
	}
	s.drawn = k + 1
	return lazyWords[rngLen-rngTap-1-k].value(s.seed) + lazyWords[rngLen-1-k].value(s.seed)
}

// Int63 returns the next value of the stream with its top bit cleared.
//
//deltacolor:hotpath
func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() & int63Mask)
}

// fullUint64 serves every draw after the first lazyDraws from a real
// rand.NewSource, created on the first such draw and advanced past the
// draws the lazy register already served.
func (s *lazySource) fullUint64() uint64 {
	if s.full == nil {
		s.full = rand.NewSource(int64(s.seed)).(rand.Source64)
		for range lazyDraws {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}
