package local

import "reflect"

// CONGEST instrumentation. The LOCAL model allows unbounded messages; the
// CONGEST model caps them at O(log n) bits per edge per round. Measuring
// how large a LOCAL algorithm's messages actually get says how far it is
// from CONGEST-portable — the flooding-based phases of the Δ-coloring
// algorithms blow up (they ship whole balls), while the color-trial
// phases fit comfortably.
//
// Enable with Network.EnableMessageStats before the run; read the result via
// Network.MessageStats afterwards.

// MessageStats aggregates per-run message-size measurements.
type MessageStats struct {
	Messages     int // messages staged over the whole run (includes Dropped)
	TotalBytes   int // estimated payload bytes across all staged messages
	MaxBytes     int // largest single message, estimated bytes
	MaxRound     int // round in which the largest message was sent
	RoundsActive int // rounds in which at least one message was sent
	Dropped      int // messages staged for already-halted receivers (never delivered)
	Truncated    int // messages whose size estimate hit the reflection depth cap (undercounted; see maxEstimateDepth)

	// DroppedByFault counts messages an attached FaultPlan destroyed
	// (drops, crash-window drops, lost delayed messages). Kept separate
	// from Dropped so the strict dead-send accounting — a protocol-bug
	// detector — does not misfire on injected faults. Always 0 without a
	// plan.
	DroppedByFault int
}

// EnableMessageStats turns on message-size accounting for subsequent
// runs. It costs a reflection walk per delivered message, so it is off by
// default.
func (net *Network) EnableMessageStats() {
	net.stats = &MessageStats{}
}

// MessageStats returns the measurements of the last instrumented run, or
// nil when EnableMessageStats was not called.
func (net *Network) MessageStats() *MessageStats { return net.stats }

// intMsgBytes is the wire size charged per int-path message: one int32
// payload, the honest CONGEST cost of the small-integer protocols.
const intMsgBytes = 4

// recordMessages is called by the coordinator before delivery, with the
// staged messages of the closing round. It walks only the active sender
// lists (batch by batch, in deterministic order), so rounds where few
// nodes speak cost little to measure. Boxed messages are costed by a
// reflection walk; int-path messages are a flat int32 each.
func (net *Network) recordMessages() {
	any := false
	for i := range net.batches {
		for _, id := range net.batches[i].senders {
			c := &net.ctxs[id]
			ports := net.ports[id]
			if c.nBoxed > 0 {
				for p, msg := range c.out {
					if msg == nil {
						continue
					}
					any = true
					var truncated bool
					sz := estimateSize(reflect.ValueOf(msg), 0, &truncated)
					net.record(sz, ports[p], truncated)
				}
			}
			if c.nInts > 0 {
				for p, h := range c.outHas {
					if h == 0 {
						continue
					}
					any = true
					net.record(intMsgBytes, ports[p], false)
				}
			}
		}
	}
	if any {
		net.stats.RoundsActive++
	}
}

// record accounts one staged message of sz bytes headed for node to
// (an internal index; it never leaves this accounting). truncated marks
// a size estimate that hit the reflection depth cap.
func (net *Network) record(sz, to int, truncated bool) {
	net.stats.Messages++
	net.stats.TotalBytes += sz
	if truncated {
		net.stats.Truncated++
	}
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

// maxEstimateDepth caps the reflection walk of estimateSize, defending
// against cyclic structures (a linked ring would otherwise never
// terminate). A subtree at the cap cannot be measured, so it is charged
// truncatedSubtreeBytes — a conservative floor, every real value costs
// at least that once unwrapped — and the message is counted in
// MessageStats.Truncated so undercounted totals are visible instead of
// silent.
const maxEstimateDepth = 12

// truncatedSubtreeBytes is the flat conservative charge for a subtree
// below maxEstimateDepth: the size of one word-sized scalar, the
// smallest payload a non-empty subtree can serialize to.
const truncatedSubtreeBytes = 8

// estimateSize walks a value and estimates its wire size in bytes: the
// payload a real implementation would serialize. Pointers and interfaces
// unwrap; maps and slices sum elements plus per-entry overhead. Depth is
// capped at maxEstimateDepth; truncated is set when the cap was hit, and
// the capped subtree is charged truncatedSubtreeBytes instead of being
// dropped.
func estimateSize(v reflect.Value, depth int, truncated *bool) int {
	if !v.IsValid() {
		return 0
	}
	if depth > maxEstimateDepth {
		*truncated = true
		return truncatedSubtreeBytes
	}
	switch v.Kind() {
	case reflect.Bool:
		return 1
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Float64:
		return 8
	case reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4
	case reflect.String:
		return len(v.String())
	case reflect.Slice, reflect.Array:
		sz := 4 // length prefix
		for i := 0; i < v.Len(); i++ {
			sz += estimateSize(v.Index(i), depth+1, truncated)
		}
		return sz
	case reflect.Map:
		sz := 4
		iter := v.MapRange()
		for iter.Next() {
			sz += estimateSize(iter.Key(), depth+1, truncated)
			sz += estimateSize(iter.Value(), depth+1, truncated)
		}
		return sz
	case reflect.Struct:
		sz := 0
		for i := 0; i < v.NumField(); i++ {
			sz += estimateSize(v.Field(i), depth+1, truncated)
		}
		return sz
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			return 1
		}
		return 1 + estimateSize(v.Elem(), depth+1, truncated)
	default:
		return 8
	}
}
