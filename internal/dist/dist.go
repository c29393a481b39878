// Package dist provides the message-passing building blocks the Δ-coloring
// algorithms are composed from, implemented as genuine per-node protocols on
// the local runtime (local.Network / local.Ctx):
//
//   - Linial: the O(log* n) color reduction of [Linial 1992] — every node
//     starts from its ID and repeatedly maps its color through a family of
//     low-degree polynomials over a prime field, shrinking the palette from
//     n to O(Δ²) in a deterministic, globally known number of rounds.
//   - ReduceColors: the colors of Barenboim–Elkin-style
//     one-class-per-round reduction from a k-coloring down to a target
//     palette (Δ+1 in every caller), the second half of the classic
//     O(log* n + k) (Δ+1)-coloring. It decides early: a node recolors as
//     soon as its higher-class neighbors have, so the run lasts as long
//     as the longest chain of decreasing classes, while the charge stays
//     the schedule's k - target rounds. It is quiet: each node speaks at
//     the start and when it recolors, and halts then.
//   - LubyMIS: Luby's randomized maximal independent set, restricted to an
//     active node subset; used for ruling sets over virtual (quotient)
//     graphs in the shattering and DCC phases.
//   - ListInstance / ListColorRandomized / ListColorDeterministic:
//     (deg+1)-list-coloring of a layer against an already colored partial
//     assignment — the subroutine the layering technique of Section 3
//     invokes once per layer, in random-trial and class-scheduled
//     deterministic variants (the paper's Theorems 18/19 substitutes,
//     README "Departures from the paper"). An instance holds the layer's
//     nodes and their mask, the partial coloring and Δ; each active node
//     derives its list from the partial coloring when its protocol starts
//     and folds every final it hears out of it.
//   - Decompose / VerifyDecomposition: a Miller–Peng–Xu-style low-diameter
//     decomposition with exponential random shifts, standing in for the
//     deterministic network decomposition of [PS92] in the Theorem 21
//     variant.
//
// How the primitives compose into the paper's algorithms:
//
//   - Algorithm 1 (randomized, Theorems 1/3): LubyMIS selects the base
//     layer among degree-choosable components, the T-node shattering
//     phase marks color-one pairs, and the resulting happy/leftover layers
//     are colored in reverse with ListColorRandomized instances.
//   - Algorithm 3 (deterministic, Theorem 4): Linial and ReduceColors
//     supply one (Δ+1)-coloring whose classes schedule every layer, the
//     AGLP ruling set builds B0, and each peeled layer is one
//     ListColorDeterministic instance of Δ+1 rounds.
//   - Algorithm 4 (Theorem 21 variant): Decompose replaces the AGLP
//     recursion; the ruling set is drawn from cluster centers class by
//     class, then the same layered list colorings run.
//   - The Panconesi–Srinivasan baseline: Linial then ReduceColors give a
//     (Δ+1)-coloring, whose extra color class Brooks token walks repair.
//
// The masked protocols (both list colorings, and LubyMIS with a mask) run
// on the active nodes and their boundary only, through one helper
// (runMasked) and the engine's node set: a boundary node says one bye
// toward the active nodes and halts, and nodes farther out never run, so
// a layer costs its members and their boundary, not n. The list
// colorings return their colors aligned with the instance's nodes.
//
// No primitive here checks a final coloring: every pipeline ends in the
// frame of internal/core, whose Finish runs verify.DeltaColoring.
//
// The network-run primitives (Linial, ReduceColors, LubyMIS, the list
// colorings) return the actual synchronous round count of the underlying
// run, so the experiment harness (and the CONGEST profile E11, which
// measures the byte size of every message they send) reports measured
// costs. Decompose is the one centralized construction: it computes the
// clustering directly and reports the simulated round cost of the shifted
// BFS it stands for.
package dist
