package graph

import (
	"math/rand"
	"testing"
)

func benchGraph(b *testing.B, n int, p float64) *G {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustEdge(u, v)
			}
		}
	}
	return g
}

func BenchmarkBFSFull(b *testing.B) {
	g := benchGraph(b, 2048, 0.004)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(i % g.N())
	}
}

func BenchmarkBFSLimited4(b *testing.B) {
	g := benchGraph(b, 2048, 0.004)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSLimited(i%g.N(), 4)
	}
}

func BenchmarkMultiSourceDist(b *testing.B) {
	g := benchGraph(b, 2048, 0.004)
	sources := []int{0, 512, 1024, 1536}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MultiSourceDist(sources)
	}
}

func BenchmarkBiconnectedComponents(b *testing.B) {
	g := benchGraph(b, 1024, 0.008)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BiconnectedComponents()
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := benchGraph(b, 1024, 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(i%g.N(), (i*7)%g.N())
	}
}

func BenchmarkEdgeListRoundTrip(b *testing.B) {
	g := benchGraph(b, 1024, 0.008)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if err := WriteEdgeList(&buf, g); err != nil {
			b.Fatal(err)
		}
	}
}

type writeCounter struct{ n int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
