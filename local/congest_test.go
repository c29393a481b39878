package local

import (
	"reflect"
	"testing"

	"deltacolor/graph"
)

func path4() *graph.G {
	g := graph.New(4)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	g.MustEdge(2, 3)
	return g
}

func TestMessageStatsCountsAndSizes(t *testing.T) {
	g := path4()
	net := NewNetwork(g, 1)
	net.EnableMessageStats()
	// One round: everyone broadcasts a single int (8 bytes).
	RunStepped(net, oneRound(func(ctx *Ctx) { ctx.Broadcast(42) }))
	st := net.MessageStats()
	if st == nil {
		t.Fatal("stats not recorded")
	}
	// Path 0-1-2-3 has 6 directed (port) messages.
	if st.Messages != 6 {
		t.Fatalf("messages = %d, want 6", st.Messages)
	}
	if st.MaxBytes != 8 || st.TotalBytes != 48 {
		t.Fatalf("bytes = max %d total %d, want 8, 48", st.MaxBytes, st.TotalBytes)
	}
	if st.RoundsActive != 1 {
		t.Fatalf("roundsActive = %d, want 1", st.RoundsActive)
	}
}

func TestMessageStatsGrowingMessages(t *testing.T) {
	g := path4()
	net := NewNetwork(g, 1)
	net.EnableMessageStats()
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		// Round 1: small message; round 2: big slice.
		switch round {
		case 0:
			ctx.Broadcast(1)
		case 1:
			big := make([]int, 100)
			ctx.Broadcast(big)
		}
		return round < 2
	}))
	st := net.MessageStats()
	if st.MaxBytes < 800 {
		t.Fatalf("max bytes = %d, want >= 800 (100 ints)", st.MaxBytes)
	}
	if st.MaxRound != 2 {
		t.Fatalf("max round = %d, want 2", st.MaxRound)
	}
	if st.RoundsActive != 2 {
		t.Fatalf("roundsActive = %d, want 2", st.RoundsActive)
	}
}

func TestMessageStatsOffByDefault(t *testing.T) {
	net := NewNetwork(path4(), 1)
	RunStepped(net, oneRound(func(ctx *Ctx) { ctx.Broadcast(1) }))
	if net.MessageStats() != nil {
		t.Fatal("stats should be nil when not enabled")
	}
}

// chainNode builds pointer chains for the depth-cap tests.
type chainNode struct {
	Next *chainNode
}

func makeChain(depth int) *chainNode {
	head := &chainNode{}
	cur := head
	for i := 0; i < depth; i++ {
		cur.Next = &chainNode{}
		cur = cur.Next
	}
	return head
}

// deepSlice nests a slice k levels deep: [[[...[1]...]]].
func deepSlice(k int) any {
	var v any = []int{1}
	for i := 0; i < k; i++ {
		v = []any{v}
	}
	return v
}

// TestEstimateSizeTable pins the wire-size model on nested
// map/slice/pointer payloads, including subtrees deeper than the
// reflection cap: a capped subtree is charged the conservative floor and
// flagged, never silently dropped.
func TestEstimateSizeTable(t *testing.T) {
	type pair struct {
		A int32
		B string
	}
	cases := []struct {
		name      string
		v         any
		want      int // -1: only the conservative floor is checked
		truncated bool
	}{
		{"int", 7, 8, false},
		{"bool", true, 1, false},
		{"string", "hello", 5, false},
		{"slice-of-int", []int{1, 2, 3}, 4 + 3*8, false},
		{"nested-slice", [][]int32{{1, 2}, {3}}, 4 + (4 + 2*4) + (4 + 4), false},
		{"map", map[int8]int8{1: 2}, 4 + 1 + 1, false},
		{"nested-map", map[int8][]int8{1: {2, 3}}, 4 + 1 + (4 + 2), false},
		{"struct", pair{A: 1, B: "xy"}, 4 + 2, false},
		{"pointer", &pair{A: 1, B: "xy"}, 1 + 4 + 2, false},
		{"nil-pointer", (*pair)(nil), 1, false},
		// Each chain level costs 1 (ptr) and the final nil Next costs 1;
		// a 5-link chain stays well under the cap.
		{"chain-under-cap", makeChain(5), 5*1 + 1*1 + 1, false},
		{"chain-past-cap", makeChain(40), -1, true},
		{"slices-past-cap", deepSlice(2 * maxEstimateDepth), -1, true},
		{"map-past-cap", map[string]any{"k": deepSlice(2 * maxEstimateDepth)}, -1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var truncated bool
			got := estimateSize(reflect.ValueOf(tc.v), 0, &truncated)
			if truncated != tc.truncated {
				t.Fatalf("truncated = %v, want %v", truncated, tc.truncated)
			}
			if tc.want >= 0 && got != tc.want {
				t.Fatalf("size = %d, want %d", got, tc.want)
			}
			if tc.want < 0 && got < truncatedSubtreeBytes {
				t.Fatalf("truncated estimate %d below the conservative floor %d", got, truncatedSubtreeBytes)
			}
		})
	}
}

// TestEstimateSizeCycleTerminates: the depth cap is the defense against
// cyclic payloads; a self-referential value must terminate, be flagged
// truncated, and carry a nonzero conservative size.
func TestEstimateSizeCycleTerminates(t *testing.T) {
	a, b := &chainNode{}, &chainNode{}
	a.Next, b.Next = b, a
	var truncated bool
	got := estimateSize(reflect.ValueOf(a), 0, &truncated)
	if !truncated {
		t.Fatal("cyclic payload not flagged truncated")
	}
	if got < truncatedSubtreeBytes {
		t.Fatalf("cyclic estimate %d below floor %d", got, truncatedSubtreeBytes)
	}
}

// TestMessageStatsTruncatedSurface: a run that ships a too-deep payload
// must surface the undercount in MessageStats.Truncated; shallow
// payloads must leave it zero.
func TestMessageStatsTruncatedSurface(t *testing.T) {
	net := NewNetwork(path4(), 1)
	net.EnableMessageStats()
	RunStepped(net, oneRound(func(ctx *Ctx) {
		switch ctx.ID() {
		case 0:
			ctx.Send(0, makeChain(40))
		case 3:
			ctx.Send(0, "shallow")
		}
	}))
	st := net.MessageStats()
	if st.Messages != 2 {
		t.Fatalf("messages = %d, want 2", st.Messages)
	}
	if st.Truncated != 1 {
		t.Fatalf("truncated = %d, want 1 (only the deep chain)", st.Truncated)
	}
}

func TestEstimateSizeKinds(t *testing.T) {
	type payload struct {
		A int
		B string
		C []byte
		D map[int]int
		E *int
	}
	x := 7
	p := payload{A: 1, B: "abc", C: []byte{1, 2}, D: map[int]int{1: 2}, E: &x}
	net := NewNetwork(path4(), 1)
	net.EnableMessageStats()
	RunStepped(net, oneRound(func(ctx *Ctx) {
		if ctx.ID() == 0 {
			ctx.Send(0, p)
		}
	}))
	st := net.MessageStats()
	if st.Messages != 1 {
		t.Fatalf("messages = %d, want 1", st.Messages)
	}
	// 8 (A) + 3 (B) + 4+2 (C) + 4+16 (D) + 1+8 (E) = 46.
	if st.TotalBytes != 46 {
		t.Fatalf("estimated bytes = %d, want 46", st.TotalBytes)
	}
}
