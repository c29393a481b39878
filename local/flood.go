package local

// Stepped flood kernels: the distance-bounded reachability probe and the
// connected-component collection that back the ported ball-collection
// phases (internal/core's netdec ruling set and randomized shattering's
// small-component phase). FloodStepped runs entirely on the int
// lane — its rounds are allocation-free, the regression test pins that —
// while CollectComponents ships variable-length id frontiers as records
// like the gather engine.

// FloodStepped floods from the source set for exactly radius rounds and
// reports, per external node ID, whether the node lies within graph
// distance radius of some source. sources is indexed by external ID; the
// result slice is freshly allocated. radius <= 0 or an empty source set
// short-circuits without running the network (reached == sources).
//
// The protocol is the textbook TTL flood: a source broadcasts its budget,
// a node that receives a larger budget than it has seen becomes reached
// and re-broadcasts budget-1 while it stays positive. Every message is a
// single int32, so flood rounds ride the allocation-free int lane. All
// nodes run exactly radius rounds and halt together, so the flood is
// dead-send-clean under strict mode.
func FloodStepped(net *Network, sources []bool, radius int) []bool {
	n := net.g.N()
	reached := make([]bool, n)
	copy(reached, sources)
	if radius <= 0 {
		return reached
	}
	any := false
	for _, s := range sources {
		if s {
			any = true
			break
		}
	}
	if !any {
		return reached
	}
	outs := RunStepped(net, floodProgram(sources, radius))
	for v, o := range outs {
		reached[v] = o.(bool)
	}
	return reached
}

// floodState is one node's flat flood state: the largest budget it has
// received (sources start at radius+1 so they never re-forward) and the
// round counter that makes every node halt together after radius rounds.
type floodState struct {
	best  int32
	round int32
}

// floodProgram builds the TTL-flood stepped program. Messages are single
// int32 budgets on the int lane; a budget b means "you are within
// distance radius, forward b-1 if positive".
func floodProgram(sources []bool, radius int) Stepped[floodState] {
	return Stepped[floodState]{
		Init: func(ctx *Ctx, s *floodState) bool {
			if sources[ctx.ID()] {
				s.best = int32(radius) + 1
				ctx.BroadcastInt(radius)
			}
			return true
		},
		Step: func(ctx *Ctx, s *floodState) bool {
			s.round++
			deg := ctx.Degree()
			got := int32(0)
			for p := 0; p < deg; p++ {
				if m, ok := ctx.RecvInt(p); ok && int32(m) > got {
					got = int32(m)
				}
			}
			if got > s.best {
				s.best = got
				if got > 1 {
					ctx.BroadcastInt(int(got) - 1)
				}
			}
			if int(s.round) == radius {
				ctx.SetOutput(s.best > 0)
				return false
			}
			return true
		},
	}
}

// componentCap bounds the ids a node accumulates in CollectComponents: a
// node whose component grows past the cap stops collecting (it announces
// and halts like an exhausted node) and reports failure, and the caller
// falls back to a central traversal. The cap exists because per-node
// component knowledge is O(|component|) memory — the primitive targets
// the shattered-small components of the randomized pipeline, not
// arbitrary graphs.
const componentCap = 4096

// CollectComponents computes connected components through the stepped
// engine: every node floods the ids it knows until a round brings nothing
// new, at which point its component is provably complete (frontier
// distances are contiguous), it announces completion to its neighbors and
// halts one round later. comp and count follow the
// graph.ConnectedComponents convention exactly — components are numbered
// in ascending order of their minimum member, isolated nodes form their
// own components — so the two are interchangeable. ok is false when some
// node overran componentCap; comp is then nil and the caller must fall
// back to a central traversal.
//
// The completion announcement keeps the protocol dead-send-clean: a node
// never stages a message to a port whose neighbor has announced, so
// strict mode sees no late dead sends even though halting is staggered.
func CollectComponents(net *Network) (comp []int, count int, ok bool) {
	n := net.g.N()
	outs := RunStepped(net, componentProgram())
	labels := make([]int32, n)
	for v, o := range outs {
		l := o.(int32)
		if l < 0 {
			return nil, 0, false
		}
		labels[v] = l
	}
	comp = make([]int, n)
	index := make(map[int32]int, 64)
	for v := 0; v < n; v++ {
		// First occurrence of a label is at v == min member (a node's label
		// is its component's minimum id), so ascending v yields the central
		// numbering: components ranked by minimum member.
		i, seen := index[labels[v]]
		if !seen {
			i = count
			index[labels[v]] = i
			count++
		}
		comp[v] = i
	}
	return comp, count, true
}

// componentState is one node's flat component-collection state.
type componentState struct {
	ids    []int32 // known component members, discovery order
	fresh  []int32 // ids first seen this round
	seen   map[int32]struct{}
	min    int32
	done   []bool // ports whose neighbor announced completion
	said   bool   // announced completion last round; halt on the next step
	capped bool   // overran componentCap; reports -1
}

// componentDone is the completion marker: a one-element message no id can
// collide with (ids are non-negative).
var componentDone = []int32{-1}

// componentProgram floods component membership: each round a node ships
// the ids it learned last round to every port that has not announced
// completion. A round with no fresh ids proves the component is exhausted
// (if a node at distance r exists, one at every distance below r does, so
// the frontier cannot skip a round); the node then announces and halts
// one step later, giving neighbors a full round to stop sending to it.
// Output is the minimum known id, or -1 if the node overran componentCap.
func componentProgram() Stepped[componentState] {
	send := func(ctx *Ctx, s *componentState, msg []int32) {
		for p := 0; p < ctx.Degree(); p++ {
			if !s.done[p] {
				ctx.Send(p, msg)
			}
		}
	}
	return Stepped[componentState]{
		Init: func(ctx *Ctx, s *componentState) bool {
			id := int32(ctx.ID())
			s.min = id
			if ctx.Degree() == 0 {
				ctx.SetOutput(id)
				return false
			}
			s.ids = append(s.ids, id)
			s.seen = map[int32]struct{}{id: {}}
			s.done = make([]bool, ctx.Degree())
			ctx.Broadcast([]int32{id})
			return true
		},
		Step: func(ctx *Ctx, s *componentState) bool {
			if s.said {
				// Everyone adjacent processed our announcement last round;
				// nothing more can arrive that matters.
				if s.capped {
					ctx.SetOutput(int32(-1))
				} else {
					ctx.SetOutput(s.min)
				}
				return false
			}
			s.fresh = s.fresh[:0]
			for p := 0; p < ctx.Degree(); p++ {
				m := ctx.Recv(p)
				if m == nil {
					continue
				}
				if m[0] == -1 {
					s.done[p] = true
					continue
				}
				for _, id := range m {
					if _, dup := s.seen[id]; dup {
						continue
					}
					s.seen[id] = struct{}{}
					s.ids = append(s.ids, id)
					s.fresh = append(s.fresh, id)
					if id < s.min {
						s.min = id
					}
				}
			}
			if len(s.ids) > componentCap {
				s.capped = true
			}
			if len(s.fresh) == 0 || s.capped {
				s.said = true
				send(ctx, s, componentDone)
				return true
			}
			out := make([]int32, len(s.fresh))
			copy(out, s.fresh)
			send(ctx, s, out)
			return true
		},
	}
}
