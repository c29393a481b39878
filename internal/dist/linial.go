package dist

import (
	"slices"

	"deltacolor/local"
)

// linialStep is one palette-reduction iteration: the incoming colors are
// encoded as polynomials of degree d over GF(q) (q^(d+1) covers the
// incoming palette) and remapped into [0, q²).
type linialStep struct {
	q int // prime modulus, q > Δ·d
	d int // polynomial degree
}

// linialSchedule derives the deterministic iteration schedule from the
// global parameters n and Δ. Every node computes the same schedule from
// ctx.N() and ctx.MaxDegree(), so all nodes run the same number of rounds.
func linialSchedule(n, delta int) []linialStep {
	var steps []linialStep
	k := n
	for {
		st, next := linialBestStep(k, delta)
		if next >= k {
			return steps
		}
		steps = append(steps, st)
		k = next
	}
}

// linialBestStep picks the degree d and prime q minimizing the outgoing
// palette q². A step is sound when q > Δ·d (two distinct degree-d
// polynomials agree on at most d points, so a node with at most Δ
// differently colored neighbors always finds a clean evaluation point) and
// q^(d+1) >= k (so every color has a distinct polynomial).
func linialBestStep(k, delta int) (linialStep, int) {
	best := linialStep{}
	next := k
	if delta < 1 {
		return best, next
	}
	for d := 1; ; d++ {
		lo := delta*d + 1
		if lo*lo >= next {
			// Larger degrees force q > Δ·d past the current best; stop.
			return best, next
		}
		if r := intRoot(k, d+1); r > lo {
			lo = r
		}
		q := nextPrime(lo)
		if q*q < next {
			best = linialStep{q: q, d: d}
			next = q * q
		}
	}
}

// linialState is the cross-round node state of the stepped protocol.
type linialState struct {
	color int
	cur   int // next schedule step to apply
}

// Linial computes an O(Δ²)-coloring in O(log* n) rounds: nodes start from
// their IDs and run the schedule of polynomial reductions, broadcasting
// their current color each round over the int fast path. The protocol runs
// in the executor's stepped form (one Step per reduction round). It
// returns the coloring, the final palette size k, and the number of rounds
// used.
func Linial(net *local.Network) (colors []int, k, rounds int) {
	g := net.Graph()
	n := g.N()
	delta := g.MaxDegree()
	steps := linialSchedule(n, delta)

	colors = slices.Repeat([]int{-1}, n)
	local.RunStepped(net, local.Stepped[linialState]{
		Init: func(ctx *local.Ctx, s *linialState) bool {
			s.color = ctx.ID()
			if len(steps) == 0 {
				colors[ctx.ID()] = s.color
				return false
			}
			ctx.BroadcastInt(s.color)
			return true
		},
		Step: func(ctx *local.Ctx, s *linialState) bool {
			var buf [16]int // the neighbor colors; on the stack up to degree 16
			nbr := buf[:0]
			for p := 0; p < ctx.Degree(); p++ {
				if m, ok := ctx.RecvInt(p); ok {
					nbr = append(nbr, m)
				}
			}
			s.color = linialRecolor(s.color, nbr, steps[s.cur])
			s.cur++
			if s.cur == len(steps) {
				colors[ctx.ID()] = s.color
				return false
			}
			ctx.BroadcastInt(s.color)
			return true
		},
	})

	k = n
	if len(steps) > 0 {
		last := steps[len(steps)-1]
		k = last.q * last.q
	}
	if k < 1 {
		k = 1
	}
	return colors, k, net.Rounds()
}

// linialRecolor maps color c into [0, q²) given the neighbors' current
// colors: find an evaluation point x where p_c differs from every
// neighbor's polynomial, and emit (x, p_c(x)). At most Δ·d points are bad,
// and q > Δ·d, so a clean point always exists for proper inputs. The
// coefficients of every polynomial are laid out once, in a buffer on the
// stack while they fit, so a call allocates nothing on bounded degrees.
func linialRecolor(c int, nbrColors []int, st linialStep) int {
	w := st.d + 1
	var buf [128]int
	coef := buf[:0]
	if need := (len(nbrColors) + 1) * w; need > len(buf) {
		coef = make([]int, 0, need)
	}
	coef = appendCoeffs(coef, c, st.q, w)
	for _, nc := range nbrColors {
		if nc == c {
			// Improper input; no point separates identical polynomials.
			continue
		}
		coef = appendCoeffs(coef, nc, st.q, w)
	}
	own, nbr := coef[:w], coef[w:]
	for x := 0; x < st.q; x++ {
		y := polyEval(own, x, st.q)
		clean := true
		for i := 0; i < len(nbr); i += w {
			if polyEval(nbr[i:i+w], x, st.q) == y {
				clean = false
				break
			}
		}
		if clean {
			return x*st.q + y
		}
	}
	return c % (st.q * st.q) // unreachable on proper inputs
}

// appendCoeffs appends c's w base-q digits, lowest first: the
// coefficients of p_c.
func appendCoeffs(coef []int, c, q, w int) []int {
	for range w {
		coef = append(coef, c%q)
		c /= q
	}
	return coef
}

// polyEval evaluates the polynomial with the given coefficients at x mod q.
func polyEval(coef []int, x, q int) int {
	y := 0
	for i := len(coef) - 1; i >= 0; i-- {
		y = (y*x + coef[i]) % q
	}
	return y
}

// intRoot returns the smallest r >= 1 with r^e >= k.
func intRoot(k, e int) int {
	if k <= 1 {
		return 1
	}
	r := 1
	for ipow(r, e) < k {
		r++
	}
	return r
}

// ipow computes b^e with saturation well above any palette size in use.
func ipow(b, e int) int {
	p := 1
	for i := 0; i < e; i++ {
		p *= b
		if p > 1<<40 {
			return p
		}
	}
	return p
}

// nextPrime returns the smallest prime >= x.
func nextPrime(x int) int {
	if x <= 2 {
		return 2
	}
	for n := x; ; n++ {
		if isPrime(n) {
			return n
		}
	}
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			return false
		}
	}
	return true
}
