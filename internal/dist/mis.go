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
	afterB  bool // the next Step completes a round B (else a round A)
	state   byte
	phase   int
	r       uint64
	known   []byte
	knownR  []uint64
	knownID []int32
	bye     byeTracker
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
//
// With a mask, only the active nodes and their boundary run (runMasked):
// an inactive neighbor announces itself inactive once, with the bye flag,
// and leaves; with no active node nothing runs, in 0 rounds.
func LubyMIS(net *local.Network, active []bool) (inMIS []bool, rounds int) {
	n := net.Graph().N()
	inMIS = make([]bool, n)
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

	prog := local.Stepped[misState]{
		Init: func(ctx *local.Ctx, s *misState) bool {
			s.state = misUndecided
			s.known = make([]byte, ctx.Degree())
			s.knownR = make([]uint64, ctx.Degree())
			s.knownID = make([]int32, ctx.Degree())
			s.bye.init(ctx.Degree())
			sendA(ctx, s)
			return true
		},
		Step: func(ctx *local.Ctx, s *misState) bool {
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
						inMIS[ctx.ID()] = s.state == misIn
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
				inMIS[ctx.ID()] = s.state == misIn
				return false
			}
			sendA(ctx, s)
			return true
		},
	}
	if active == nil {
		local.RunStepped(net, prog)
		return inMIS, net.Rounds()
	}
	var members []int
	for v, a := range active {
		if a {
			members = append(members, v)
		}
	}
	return inMIS, runMasked(net, members, active, int(misInactive)|misBye, prog)
}
