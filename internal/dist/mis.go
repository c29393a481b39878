package dist

import (
	"deltacolor/local"
)

// Node states exchanged by the MIS protocol.
const (
	misUnknown byte = iota // placeholder before the first message arrives
	misUndecided
	misIn
	misOut
	misInactive
)

// misBye flags an int-lane state announcement as the sender's last words:
// the sender halts this round, so the receiver stops staging messages on
// the port. This keeps the early-halt optimization free of avoidable dead
// sends (strict mode checks exactly that).
const misBye = 8

// misDecided reports whether a known neighbor state is final.
func misDecided(s byte) bool { return s == misIn || s == misOut || s == misInactive }

// misState is the cross-round node state of the stepped protocol.
type misState struct {
	inactive bool
	afterB   bool // the next Step completes a round B (else a round A)
	state    byte
	phase    int
	r        uint64
	known    []byte
	knownR   []uint64
	knownID  []int32
	bye      byeTracker
}

// note records a state heard on port p, stripping and remembering a bye.
func (s *misState) note(p, st int) {
	if st&misBye != 0 {
		s.bye.note(p)
		st &^= misBye
	}
	s.known[p] = byte(st)
}

// LubyMIS computes a maximal independent set of G[active] with Luby's
// algorithm (active == nil means all nodes participate). Each phase costs
// two rounds: undecided nodes draw a lottery value and broadcast it; a node
// whose (value, ID) pair is a strict local minimum among undecided active
// neighbors joins the MIS; joiners announce themselves and their neighbors
// drop out. A node halts once it and all its neighbors are decided, so the
// returned round count is the measured cost, O(log n) w.h.p.
func LubyMIS(net *local.Network, active []bool) (inMIS []bool, rounds int) {
	g := net.Graph()
	n := g.N()
	var inputs []any
	if active != nil {
		inputs = make([]any, n)
		for v := 0; v < n; v++ {
			inputs[v] = active[v]
		}
	}

	maxPhases := 4*n + 16 // termination backstop; never reached in practice

	// sendA stages the round-A lottery broadcast, drawing a fresh lottery
	// value when still undecided. The payload is the four-word record
	// [state, ID, R>>32, uint32(R)]: the sender's state, its ID for
	// tie-breaking, and the 64-bit lottery value (meaningful only while
	// undecided) split into two words. Round-B announcements and inactive
	// notices are bare states on the int lane, so half of the protocol's
	// traffic is allocation-free.
	sendA := func(ctx *local.Ctx, s *misState) {
		s.r = 0
		if s.state == misUndecided {
			s.r = ctx.Rand().Uint64()
		}
		s.bye.castRec(ctx, []int32{int32(s.state), int32(ctx.ID()), int32(s.r >> 32), int32(uint32(s.r))})
		s.afterB = false
	}

	outs := local.RunSteppedWithInput(net, local.Stepped[misState]{
		Init: func(ctx *local.Ctx, s *misState) bool {
			if in, ok := ctx.Input().(bool); ok && !in {
				// Inactive: announce once (with the bye flag: this node is
				// gone) so neighbors can discount and mute this port.
				ctx.BroadcastInt(int(misInactive) | misBye)
				s.inactive = true
				return true
			}
			s.state = misUndecided
			s.known = make([]byte, ctx.Degree())
			s.knownR = make([]uint64, ctx.Degree())
			s.knownID = make([]int32, ctx.Degree())
			s.bye.init(ctx.Degree())
			sendA(ctx, s)
			return true
		},
		Step: func(ctx *local.Ctx, s *misState) bool {
			if s.inactive {
				ctx.SetOutput(false)
				return false
			}
			if !s.afterB {
				// A round A just completed: collect states and lotteries.
				for p := 0; p < ctx.Degree(); p++ {
					if st, ok := ctx.RecvInt(p); ok {
						// State-only notice (an inactive neighbor's
						// announcement, or a bye that slid into round A).
						s.note(p, st)
						continue
					}
					if m := ctx.Recv(p); m != nil {
						s.known[p], s.knownID[p] = byte(m[0]), m[1]
						s.knownR[p] = uint64(uint32(m[2]))<<32 | uint64(uint32(m[3]))
					}
				}
				if misDecided(s.state) {
					done := true
					for p := 0; p < ctx.Degree(); p++ {
						if !misDecided(s.known[p]) {
							done = false
							break
						}
					}
					if done {
						// Halt: stage one last announcement with the bye
						// flag so listening neighbors mute this port, then
						// leave (staged sends of a halting node are still
						// delivered).
						s.bye.castInt(ctx, int(s.state)|misBye)
						ctx.SetOutput(s.state == misIn)
						return false
					}
				}
				if s.state == misUndecided {
					win := true
					for p := 0; p < ctx.Degree(); p++ {
						if s.known[p] != misUndecided {
							continue
						}
						if s.knownR[p] < s.r || (s.knownR[p] == s.r && int(s.knownID[p]) < ctx.ID()) {
							win = false
							break
						}
					}
					if win {
						s.state = misIn
					}
				}
				// Round B: announce joins (a bare state, int lane).
				s.bye.castInt(ctx, int(s.state))
				s.afterB = true
				return true
			}
			// A round B just completed: record joins, drop out next to one.
			for p := 0; p < ctx.Degree(); p++ {
				if st, ok := ctx.RecvInt(p); ok {
					s.note(p, st)
				}
			}
			if s.state == misUndecided {
				for p := 0; p < ctx.Degree(); p++ {
					if s.known[p] == misIn {
						s.state = misOut
						break
					}
				}
			}
			s.phase++
			if s.phase >= maxPhases {
				ctx.SetOutput(s.state == misIn)
				return false
			}
			sendA(ctx, s)
			return true
		},
	}, inputs)

	inMIS = make([]bool, n)
	for v, o := range outs {
		inMIS[v] = o.(bool)
	}
	return inMIS, net.Rounds()
}
