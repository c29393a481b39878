package local

import (
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
	// One round: everyone broadcasts a two-word record (8 bytes).
	RunStepped(net, oneRound(func(ctx *Ctx) { ctx.Broadcast([]int32{42, 43}) }))
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
		// Round 1: small message; round 2: big record.
		switch round {
		case 0:
			ctx.Broadcast([]int32{1})
		case 1:
			ctx.Broadcast(make([]int32, 100))
		}
		return round < 2
	}))
	st := net.MessageStats()
	if st.MaxBytes != 400 {
		t.Fatalf("max bytes = %d, want 400 (100 words)", st.MaxBytes)
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
	RunStepped(net, oneRound(func(ctx *Ctx) { ctx.Broadcast([]int32{1}) }))
	if net.MessageStats() != nil {
		t.Fatal("stats should be nil when not enabled")
	}
}
