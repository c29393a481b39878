package deltacolor_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"deltacolor"
	"deltacolor/graph/gen"
	"deltacolor/local"
)

func TestColorRejectsBadOptions(t *testing.T) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(1)), 64, 4)
	cases := []struct {
		name  string
		opts  deltacolor.Options
		field string
	}{
		{"unknown algorithm", deltacolor.Options{Algorithm: deltacolor.Algorithm(99)}, "Algorithm"},
		{"negative algorithm", deltacolor.Options{Algorithm: deltacolor.Algorithm(-1)}, "Algorithm"},
		{"one past the last algorithm", deltacolor.Options{Algorithm: deltacolor.AlgNetDec + 1}, "Algorithm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := deltacolor.Color(g, tc.opts)
			if err == nil {
				t.Fatalf("Color accepted %+v (res=%v)", tc.opts, res)
			}
			if !errors.Is(err, deltacolor.ErrBadOptions) {
				t.Fatalf("err = %v, want ErrBadOptions", err)
			}
			var oe *deltacolor.OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("err = %T, want *OptionError", err)
			}
			if oe.Field != tc.field {
				t.Fatalf("err field = %q, want %q", oe.Field, tc.field)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error message %q does not name the field", err)
			}
			// ColorUnderFaults passes the same precondition error through
			// unwrapped, whatever the plan.
			_, _, err = deltacolor.ColorUnderFaults(g, tc.opts, &local.FaultPlan{Seed: 1, DropProb: 0.5, RoundLimit: 50})
			if !errors.Is(err, deltacolor.ErrBadOptions) || errors.Is(err, deltacolor.ErrUnrecoverable) {
				t.Fatalf("ColorUnderFaults err = %v, want an unwrapped ErrBadOptions", err)
			}
		})
	}
}

func TestColorAcceptsZeroAndValidOptions(t *testing.T) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(2)), 64, 4)
	for _, opts := range []deltacolor.Options{
		{Seed: 1}, // the zero Algorithm is AlgAuto
		{Algorithm: deltacolor.AlgAuto, Seed: 1},
	} {
		res, err := deltacolor.Color(g, opts)
		if err != nil {
			t.Fatalf("Color rejected valid options %+v: %v", opts, err)
		}
		if len(res.Colors) != 64 {
			t.Fatalf("bad result for %+v", opts)
		}
	}
}
