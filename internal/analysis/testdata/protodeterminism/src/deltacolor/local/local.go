// Package local is a test double for deltacolor/local: just enough
// surface for the fixtures to exercise the protocol-scope heuristics.
package local

import "math/rand"

// Ctx mirrors the runtime's per-node context.
type Ctx struct{ id int }

func (c *Ctx) ID() int                 { return c.id }
func (c *Ctx) Degree() int             { return 0 }
func (c *Ctx) Rand() *rand.Rand        { return rand.New(rand.NewSource(int64(c.id))) }
func (c *Ctx) Send(p int, rec []int32) {}
func (c *Ctx) Broadcast(rec []int32)   {}
func (c *Ctx) Recv(p int) []int32      { return nil }
