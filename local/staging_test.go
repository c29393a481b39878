package local

import (
	"slices"
	"testing"

	"deltacolor/graph"
)

// portModel is what one port should carry after a staging script: nothing,
// a record (rec non-nil, possibly empty) or an int.
type portModel struct {
	rec    []int32
	v      int
	hasInt bool
}

// stagingOp is one decoded script step: node v calls op on port p with
// record rec (nil for the nil record) or int x.
type stagingOp struct {
	v, op, p, x int
	rec         []int32
}

// FuzzCtxStaging drives the staging API with byte scripts on a graph with
// nodes of every degree from 0 to 5, and checks one round of delivery
// against a per-port model: the last staging on a port wins across lanes,
// a nil record un-stages the port, and a broadcast on a degree-0 node does
// nothing (the node does not even become a sender). MessageStats must
// count exactly the modeled messages, at 4 bytes per word.
//
// Each byte pair (sel, arg) is one call by node sel%7: sel/7%6 picks Send
// with nil, Send with a record, Broadcast with nil, Broadcast with a
// record, SendInt or BroadcastInt; arg picks the port (arg%deg), the
// record length (arg>>4&3 words) and the int (arg-128). Per-port calls on
// the degree-0 node are skipped, since it has no port to name.
func FuzzCtxStaging(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0x00, 22, 0x01}) // an empty record on a port, an empty broadcast
	f.Add([]byte{0, 0x35, 7, 0x12, 14, 0x21, 21, 0x30, 28, 0x01, 35, 0xff})
	f.Add([]byte{6, 0x30, 13, 0x11, 20, 0x20, 27, 0x05, 34, 0x10, 41, 0x33})
	f.Add([]byte{8, 0x31, 29, 0x02, 1, 0x31, 36, 0x7f, 22, 0x00, 15, 0x13, 8, 0x21})
	f.Fuzz(func(t *testing.T, script []byte) {
		// Degrees 5, 4, 3, 3, 2, 1 and 0.
		g := graph.New(7)
		for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2}, {1, 3}, {1, 4}, {2, 3}} {
			g.MustEdge(e[0], e[1])
		}
		want := make([][]portModel, g.N())
		for v := range want {
			want[v] = make([]portModel, g.Deg(v))
		}
		var ops []stagingOp
		for i := 0; i+1 < len(script); i += 2 {
			sel, arg := int(script[i]), int(script[i+1])
			o := stagingOp{v: sel % 7, op: sel / 7 % 6, x: arg - 128}
			ports := want[o.v]
			if o.op == 1 || o.op == 3 {
				o.rec = make([]int32, arg>>4&3)
				for k := range o.rec {
					o.rec[k] = int32(i*4 + k)
				}
			}
			m := portModel{rec: o.rec}
			if o.op >= 4 {
				m = portModel{v: o.x, hasInt: true}
			}
			if o.op == 0 || o.op == 1 || o.op == 4 {
				if len(ports) == 0 {
					continue
				}
				o.p = arg % len(ports)
				ports[o.p] = m
			} else {
				for p := range ports {
					ports[p] = m
				}
			}
			ops = append(ops, o)
		}

		net := NewNetwork(g, 1)
		net.EnableMessageStats()
		outs := make([][]portModel, g.N())
		RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
			if round == 0 {
				for _, o := range ops {
					if o.v != ctx.ID() {
						continue
					}
					switch o.op {
					case 0, 1:
						ctx.Send(o.p, o.rec)
					case 2, 3:
						ctx.Broadcast(o.rec)
					case 4:
						ctx.SendInt(o.p, o.x)
					case 5:
						ctx.BroadcastInt(o.x)
					}
				}
				if ctx.Degree() == 0 && ctx.sentAny {
					t.Errorf("degree-0 node %d registered as a sender", ctx.ID())
				}
				return true
			}
			got := make([]portModel, ctx.Degree())
			for p := range got {
				got[p].rec = ctx.Recv(p)
				got[p].v, got[p].hasInt = ctx.RecvInt(p)
			}
			outs[ctx.ID()] = got
			return false
		}))

		msgs, bytes := 0, 0
		for u := 0; u < g.N(); u++ {
			for q, v := range g.Neighbors(u) {
				r, m := outs[u][q], want[v][slices.Index(g.Neighbors(v), u)]
				if r.hasInt != m.hasInt || r.v != m.v || (r.rec == nil) != (m.rec == nil) || !slices.Equal(r.rec, m.rec) {
					t.Fatalf("node %d port %d (from node %d) got %+v, want %+v", u, q, v, r, m)
				}
				if m.hasInt {
					msgs, bytes = msgs+1, bytes+4
				} else if m.rec != nil {
					msgs, bytes = msgs+1, bytes+4*len(m.rec)
				}
			}
		}
		if st := net.MessageStats(); st.Messages != msgs || st.TotalBytes != bytes {
			t.Fatalf("MessageStats counted %d messages, %d bytes; model %d, %d", st.Messages, st.TotalBytes, msgs, bytes)
		}
	})
}
