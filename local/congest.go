package local

// CONGEST instrumentation. The LOCAL model allows unbounded messages; the
// CONGEST model caps them at O(log n) bits per edge per round. Measuring
// how large a LOCAL algorithm's messages actually get says how far it is
// from CONGEST-portable — the flooding-based phases of the Δ-coloring
// algorithms blow up (they ship whole balls), while the color-trial
// phases fit comfortably.
//
// Every message is made of int32 words, so its size is exact: an int-lane
// message is one word, a record is len(rec) words, at 4 bytes per word.
//
// Enable with Network.EnableMessageStats before the run; read the result via
// Network.MessageStats afterwards.

// MessageStats aggregates per-run message-size measurements.
type MessageStats struct {
	Messages     int // messages staged over the whole run (includes Dropped)
	TotalBytes   int // payload bytes across all staged messages, 4 per word
	MaxBytes     int // largest single message in bytes
	MaxRound     int // round in which the largest message was sent
	RoundsActive int // rounds in which at least one message was sent
	Dropped      int // messages staged for already-halted receivers (never delivered)

	// DroppedByFault counts messages an attached FaultPlan destroyed
	// (drops, crash-window drops, lost delayed messages). Kept separate
	// from Dropped so the strict dead-send accounting — a protocol-bug
	// detector — does not misfire on injected faults. Always 0 without a
	// plan.
	DroppedByFault int
}

// wordBytes is the wire size of one int32 message word.
const wordBytes = 4

// EnableMessageStats turns on message-size accounting for subsequent
// runs. It walks every sender's staged ports once per round, so it is
// off by default.
func (net *Network) EnableMessageStats() {
	net.stats = &MessageStats{}
}

// MessageStats returns the measurements of the last instrumented run, or
// nil when EnableMessageStats was not called.
func (net *Network) MessageStats() *MessageStats { return net.stats }

// recordMessages is called by the coordinator before delivery, with the
// staged messages of the closing round. It walks only the active sender
// lists (batch by batch, in deterministic order), so rounds where few
// nodes speak cost little to measure.
func (net *Network) recordMessages() {
	any := false
	for i := range net.batches {
		for _, id := range net.batches[i].senders {
			c := &net.ctxs[id]
			for p, rec := range c.out {
				switch {
				case rec.p != nil:
					net.record(wordBytes*rec.n, net.ports[id][p])
				case c.outHas[p] != 0:
					net.record(wordBytes, net.ports[id][p])
				default:
					continue
				}
				any = true
			}
		}
	}
	if any {
		net.stats.RoundsActive++
	}
}

// record accounts one staged message of sz bytes headed for node to
// (an internal index; it never leaves this accounting).
func (net *Network) record(sz, to int) {
	net.stats.Messages++
	net.stats.TotalBytes += sz
	if sz > net.stats.MaxBytes {
		net.stats.MaxBytes = sz
		// The round counter has not been incremented for the closing
		// round yet, so it is rounds+1 in 1-based reporting.
		net.stats.MaxRound = net.rounds + 1
	}
	if net.haltSeg[to] != 0 {
		net.stats.Dropped++
	}
}
