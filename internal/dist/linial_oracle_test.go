package dist

import (
	"math/rand"
	"testing"
)

// oracleLinialRecolor is linialRecolor as first written, frozen: one
// coefficient slice per neighbor per call.
func oracleLinialRecolor(c int, nbrColors []int, st linialStep) int {
	coeffs := func(c int) []int {
		coef := make([]int, st.d+1)
		for i := range coef {
			coef[i] = c % st.q
			c /= st.q
		}
		return coef
	}
	own := coeffs(c)
	nbr := make([][]int, 0, len(nbrColors))
	for _, nc := range nbrColors {
		if nc == c {
			continue
		}
		nbr = append(nbr, coeffs(nc))
	}
	for x := 0; x < st.q; x++ {
		y := polyEval(own, x, st.q)
		clean := true
		for _, coef := range nbr {
			if polyEval(coef, x, st.q) == y {
				clean = false
				break
			}
		}
		if clean {
			return x*st.q + y
		}
	}
	return c % (st.q * st.q)
}

// TestLinialRecolorMatchesOracle compares linialRecolor with the frozen
// version on every step of the schedules for n up to 2^20 and Δ up to 40,
// with random colors and neighborhoods (repeats and the node's own color
// included, as on improper inputs), and checks that a call allocates
// nothing while the coefficients fit its stack buffer.
func TestLinialRecolorMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	calls := 0
	for _, n := range []int{16, 300, 2048, 100_000, 1 << 20} {
		for _, delta := range []int{1, 3, 4, 8, 17, 40} {
			k := n
			for _, st := range linialSchedule(n, delta) {
				for range 200 {
					c := rng.Intn(k)
					nbr := make([]int, rng.Intn(delta+1))
					for i := range nbr {
						nbr[i] = rng.Intn(k)
						if rng.Intn(8) == 0 {
							nbr[i] = c
						}
					}
					if got, want := linialRecolor(c, nbr, st), oracleLinialRecolor(c, nbr, st); got != want {
						t.Fatalf("n=%d Δ=%d step %+v: linialRecolor(%d, %v) = %d, oracle %d", n, delta, st, c, nbr, got, want)
					}
					calls++
				}
				k = st.q * st.q
			}
		}
	}
	if calls == 0 {
		t.Fatal("no schedule step was tested")
	}

	st := linialSchedule(2048, 4)[0]
	nbr := []int{5, 77, 1999, 640}
	if a := testing.AllocsPerRun(100, func() { linialRecolor(1234, nbr, st) }); a != 0 {
		t.Fatalf("linialRecolor allocated %.0f times per call on Δ = 4, want 0", a)
	}
}
