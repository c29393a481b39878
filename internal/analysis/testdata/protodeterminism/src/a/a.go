// Package a holds protodeterminism fixtures: flagged cases carry want
// comments, clean cases carry none.
package a

import (
	"math/rand"
	"os"
	"time"

	"deltacolor/local"
)

// ---------------------------------------------------------------------------
// Flagged: ambient process state inside protocol scope.

func wallClock(ctx *local.Ctx, out []time.Time) {
	t := time.Now() // want `time\.Now in protocol code`
	out[ctx.ID()] = t
}

func globalRand(ctx *local.Ctx) int {
	return rand.Intn(ctx.Degree() + 1) // want `package-global math/rand\.Intn in protocol code`
}

func environment(ctx *local.Ctx) string {
	return os.Getenv("SEED") // want `os\.Getenv in protocol code`
}

func spawns(ctx *local.Ctx, out chan int) {
	go func() { out <- ctx.ID() }() // want `goroutine spawned in protocol code`
}

func mapOrderEscapes(ctx *local.Ctx, m map[int]int) []int {
	var keys []int
	for k := range m { // want `range over map in protocol code with an order-sensitive body`
		keys = append(keys, k)
	}
	return keys
}

// runsLiteral is not protocol scope itself, but the literal it builds is
// (it takes a *local.Ctx): violations inside it are still flagged.
func runsLiteral() func(*local.Ctx) {
	return func(ctx *local.Ctx) {
		_ = time.Since(time.Time{}) // want `time\.Since in protocol code`
	}
}

// annotated takes no Ctx but is protocol scope by directive.
//
//deltacolor:protocol
func annotated() string {
	return os.Getenv("HOME") // want `os\.Getenv in protocol code`
}

// ---------------------------------------------------------------------------
// Clean: the deterministic counterparts.

func ctxRand(ctx *local.Ctx) int {
	return ctx.Rand().Intn(7)
}

func seededGenerator(ctx *local.Ctx) int {
	r := rand.New(rand.NewSource(int64(ctx.ID())))
	return r.Intn(7)
}

func mapWritesOnly(ctx *local.Ctx, in, out map[int]int) {
	for k, v := range in {
		if v > 0 {
			out[k] = v
		}
	}
}

func mapDeleteOnly(ctx *local.Ctx, m map[int]bool) {
	for k := range m {
		if !m[k] {
			delete(m, k)
		}
	}
}

// notProtocol takes no Ctx and carries no directive: ambient state is
// the harness's business, not the analyzer's.
func notProtocol() time.Time {
	go func() {}()
	_ = os.Getenv("HOME")
	return time.Now()
}
