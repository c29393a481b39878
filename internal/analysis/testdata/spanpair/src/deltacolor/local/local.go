// Package local is a test double of the runtime for the spanpair
// fixtures: Accountant for the pairing rules, Tracer/Counters/batch for
// the counter-ownership rules (those fields are package-internal, so the
// writer fixtures live here too).
package local

// Accountant mirrors the runtime's span accountant.
type Accountant struct{ depth int }

func (a *Accountant) StartSpans(name string)    {}
func (a *Accountant) Begin(name string)         { a.depth++ }
func (a *Accountant) End()                      { a.depth-- }
func (a *Accountant) FinishSpans()              {}
func (a *Accountant) Charge(name string, r int) {}

// Counters mirrors the cumulative trace counters.
type Counters struct {
	Rounds int64
	Drops  int64
}

// Tracer mirrors the runtime tracer: c/head/size/run/last are run state,
// level and ring are construction-time configuration.
type Tracer struct {
	level int
	ring  []int
	c     Counters
	head  int
}

// Counters returns a detached copy, the caller's to mutate.
func (t *Tracer) Counters() Counters { return t.c }

// ---------------------------------------------------------------------------
// Flagged: counter writes outside the coordinator.

func stealsCounter(t *Tracer) {
	t.c.Rounds++ // want `write to tracer counter Rounds`
}

func stealsHead(t *Tracer, n int) {
	t.head = n // want `write to tracer counter head`
}

type batch struct{ trInts, trRecs, ftDrops, ftPanics int32 }

func stealsBatchCounter(b *batch) {
	b.trInts++ // want `write to batch trace counter trInts`
}

func stealsFaultCounter(b *batch) {
	b.ftDrops++ // want `write to batch trace counter ftDrops`
}

// ---------------------------------------------------------------------------
// Clean: the blessed writers.

//deltacolor:coordinator
func coordinatorFolds(t *Tracer, drops int64) {
	t.c.Drops += drops
}

func (t *Tracer) reset() {
	t.c = Counters{}
	t.head = 0
}

//deltacolor:coordinator
func coordinatorDrains(b *batch) {
	b.trInts, b.trRecs = 0, 0
	b.ftDrops, b.ftPanics = 0, 0
}

func mutatesCopy(t *Tracer) int64 {
	c := t.Counters()
	c.Rounds++ // detached copy, not the live tracer
	return c.Rounds
}

func constructs(level int, capacity int) *Tracer {
	t := &Tracer{level: level}
	t.ring = make([]int, capacity)
	return t
}
