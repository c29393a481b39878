package local

// This file is ball gathering: the textbook LOCAL flooding protocol ("send
// everything you learned last round") as a Stepped program with flat
// per-node state. A node keeps its knowledge as two growing arrays
// (discovery-ordered IDs and their adjacency slices) and ships each
// round's frontier as one packed []int32, so a round touches only compact
// memory. TestGatherBallMatchesBFS pins the result against central BFS
// and TestGatherSteppedNilOnlyAtFrontier the nil-versus-empty adjacency.

// Ball is a gathered radius-t ball: node IDs in discovery order (IDs[0]
// is the center) with Adj[i] holding the known adjacency of IDs[i] in
// port order — complete for nodes at distance < Radius, nil for nodes at
// distance exactly Radius (known only from their traveling self-reports).
// A radius-0 ball is the center alone, with an empty adjacency.
type Ball struct {
	Center int
	Radius int
	IDs    []int32
	Adj    [][]int32
}

// gatherState is one node's flat gather state. ids/adj grow in discovery
// order; freshAt[i] is the 1-based round in which entry i last became
// fresh (new or upgraded), deduplicating the per-round frontier without a
// per-round clear. seen accelerates membership tests once the ball
// outgrows linear scanning (small balls never allocate the map).
type gatherState struct {
	ids     []int32
	adj     [][]int32
	freshAt []int32
	fresh   []int32 // indices into ids, this round's frontier
	seen    map[int32]int32
	round   int32
}

// gatherScanMax is the ball size up to which membership tests stay linear
// scans over the flat id array; beyond it the state switches to a map.
// Small balls (the common case: radius 2–4 on bounded degree) stay
// allocation-light and cache-resident.
const gatherScanMax = 96

// find returns the index of id in s.ids, or -1.
//
//deltacolor:hotpath
func (s *gatherState) find(id int32) int32 {
	if s.seen != nil {
		if i, ok := s.seen[id]; ok {
			return i
		}
		return -1
	}
	for i, x := range s.ids {
		if x == id {
			return int32(i)
		}
	}
	return -1
}

// add appends a new (id, adjacency) entry and returns its index.
func (s *gatherState) add(id int32, a []int32) int32 {
	i := int32(len(s.ids))
	s.ids = append(s.ids, id)
	s.adj = append(s.adj, a)
	s.freshAt = append(s.freshAt, 0)
	if s.seen != nil {
		s.seen[id] = i
	} else if len(s.ids) > gatherScanMax {
		s.seen = make(map[int32]int32, 2*len(s.ids))
		for j, x := range s.ids {
			s.seen[x] = int32(j)
		}
	}
	return i
}

// learn merges one received record into the state, marking the entry
// fresh when it is new or upgrades a nil adjacency: first sighting wins,
// a later non-nil adjacency fills in a nil placeholder, anything else is
// a duplicate.
//
//deltacolor:hotpath
func (s *gatherState) learn(id int32, a []int32) {
	i := s.find(id)
	if i < 0 {
		i = s.add(id, a)
	} else if s.adj[i] == nil && a != nil {
		s.adj[i] = a
	} else {
		return
	}
	if s.freshAt[i] != s.round {
		s.freshAt[i] = s.round
		s.fresh = append(s.fresh, i)
	}
}

// gatherProgram is the flooding protocol. Round 0 (Init) broadcasts the
// id-only self-intro; step k consumes the round-k
// arrivals, learns its own adjacency from the port intros when k == 1,
// rebroadcasts the frontier as one packed []int32, and materializes the
// flat Ball after exactly t rounds. Record encoding: id, count,
// neighbors...; count == -1 marks an id-only record (nil adjacency).
func gatherProgram(t int) Stepped[gatherState] {
	return Stepped[gatherState]{
		Init: func(ctx *Ctx, s *gatherState) bool {
			if t <= 0 {
				// Radius 0: the ball is the center alone, with its own
				// adjacency as the empty (non-nil) list.
				ctx.SetOutput(&Ball{Center: ctx.ID(), Radius: t, IDs: []int32{int32(ctx.ID())}, Adj: [][]int32{{}}})
				return false
			}
			s.ids = append(s.ids, int32(ctx.ID()))
			s.adj = append(s.adj, nil)
			s.freshAt = append(s.freshAt, 0)
			// "I exist": adjacency is unknown until the port intros arrive.
			//lint:ignore hotpathalloc gather payloads are variable-length and receivers retain aliases into them, so each round ships a freshly allocated []int32 record by design
			ctx.Broadcast([]int32{int32(ctx.ID()), -1})
			return true
		},
		Step: func(ctx *Ctx, s *gatherState) bool {
			s.round++
			s.fresh = s.fresh[:0]
			deg := ctx.Degree()
			if s.round == 1 {
				// Port intros: learn our own adjacency (port order) and the
				// neighbors as id-only entries. Entry 0 is the center; its
				// completed adjacency joins this round's frontier.
				my := make([]int32, 0, deg)
				for p := 0; p < deg; p++ {
					m := ctx.Recv(p)
					if m == nil {
						continue
					}
					id := m[0]
					my = append(my, id)
					s.learn(id, nil)
				}
				s.adj[0] = my
				if s.freshAt[0] != s.round {
					s.freshAt[0] = s.round
					s.fresh = append(s.fresh, 0)
				}
			} else {
				for p := 0; p < deg; p++ {
					m := ctx.Recv(p)
					for i := 0; i < len(m); {
						id, cnt := m[i], m[i+1]
						if cnt < 0 {
							s.learn(id, nil)
							i += 2
							continue
						}
						// The adjacency slice aliases the message: payload
						// buffers are allocated per sender round and never
						// reused, so the alias stays valid for the run.
						s.learn(id, m[i+2:i+2+int(cnt):i+2+int(cnt)])
						i += 2 + int(cnt)
					}
				}
			}
			if int(s.round) == t {
				ctx.SetOutput(&Ball{Center: ctx.ID(), Radius: t, IDs: s.ids, Adj: s.adj})
				return false
			}
			if len(s.fresh) > 0 {
				words := 0
				for _, i := range s.fresh {
					words += 2 + len(s.adj[i])
				}
				//lint:ignore hotpathalloc see Init: one packed []int32 per sender round is the gather payload contract; receivers alias into it, so the buffer cannot be pooled or reused
				out := make([]int32, 0, words)
				for _, i := range s.fresh {
					a := s.adj[i]
					if a == nil {
						out = append(out, s.ids[i], -1)
						continue
					}
					out = append(out, s.ids[i], int32(len(a)))
					out = append(out, a...)
				}
				ctx.Broadcast(out)
			}
			return true
		},
	}
}

// GatherStepped collects the radius-t ball of every node and returns the
// flat balls indexed by external node ID. It consumes exactly t rounds
// (net.Rounds() == t).
func GatherStepped(net *Network, t int) []*Ball {
	outs := RunStepped(net, gatherProgram(t))
	balls := make([]*Ball, len(outs))
	for v, o := range outs {
		balls[v] = o.(*Ball)
	}
	return balls
}
