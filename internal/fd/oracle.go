package fd

import (
	"fmt"
	"slices"

	"anonurb/internal/ident"
	"anonurb/internal/xrand"
)

// NoiseMode selects how the Oracle behaves before its stabilisation time.
type NoiseMode int

const (
	// NoiseExact: views are perfect from time zero (GST is effectively 0).
	NoiseExact NoiseMode = iota
	// NoiseBenign: pre-GST, AΘ views may omit some correct pairs and
	// carry jittered numbers; AP* views keep every correct pair (with
	// number possibly inflated) and may list still-alive faulty pairs.
	NoiseBenign
	// NoiseAdversarial: pre-GST, maximal legal noise — AΘ additionally
	// shows labels of (still alive) faulty processes to correct
	// processes, exercising Algorithm 2's stale-label purge.
	NoiseAdversarial
)

// String implements fmt.Stringer.
func (m NoiseMode) String() string {
	switch m {
	case NoiseExact:
		return "exact"
	case NoiseBenign:
		return "benign"
	case NoiseAdversarial:
		return "adversarial"
	default:
		return fmt.Sprintf("NoiseMode(%d)", int(m))
	}
}

// OracleConfig parameterises a grounded failure detector oracle.
type OracleConfig struct {
	// N is the number of processes.
	N int
	// GST is the virtual time at which views become exact and permanent.
	// 0 means perfect from the start.
	GST int64
	// Noise selects the pre-GST behaviour.
	Noise NoiseMode
	// NoisePeriod is how often (in virtual time) pre-GST views are
	// re-rolled. Defaults to 50 if zero.
	NoisePeriod int64
	// RevealToFaulty is an ABLATION knob: how many faulty processes are
	// added to the audience S(ℓ) of each correct process's label ℓ.
	//
	// The default 0 is required for Algorithm 2 to be safe and quiescent:
	// the class axioms permit S(ℓ) to contain faulty processes (accuracy
	// only demands any Number-sized subset of S(ℓ) contains a correct
	// process), but then a frozen ACK from a crashed process can stand in
	// for a correct process in the retirement guard (paper line 55) and
	// the retransmission of m can stop before every correct process has
	// received it. Experiment T4 demonstrates exactly this. The paper's
	// own quiescence proof implicitly assumes the audience of every label
	// is {owner} ∪ Correct, which is what 0 enforces.
	RevealToFaulty int
	// Seed drives all pre-GST noise deterministically.
	Seed uint64
}

// Oracle synthesises AΘ and AP* views that satisfy the class axioms for a
// known crash schedule. It is the simulation-grade substitute for a real
// failure detector implementation (see DESIGN.md §2); the heartbeat
// realisation in this package shows how the same views arise from message
// exchange under partial synchrony.
//
// Soundness invariants the Oracle maintains at every time τ and process i:
//
//  1. Audience control: label ℓ_j appears in i's views only if
//     i ∈ S(ℓ_j) := {j} ∪ Correct ∪ Reveal_j, with Reveal_j ⊆ Faulty and
//     |Reveal_j| = RevealToFaulty (0 by default).
//  2. Perpetual AΘ-accuracy: every pair (ℓ_j, k) shown anywhere has
//     k ≥ |S(ℓ_j) ∩ Faulty| + 1, so every k-subset of S(ℓ_j) contains a
//     correct process.
//  3. Perpetual AP* containment: at correct processes, the AP* view
//     always contains (ℓ_c, k_c) with k_c ≥ |Correct| for every correct
//     c. (Required for the safety of retiring messages; see
//     quiescent.go.)
//  4. Post-GST exactness: from GST on, views at correct processes are
//     exactly {(ℓ_c, |Correct|) : c ∈ Correct}.
//
// Views follow the package contract: the post-GST view and a faulty
// process's view are fixed for the run, so every call returns the same
// shared slice; only a pre-GST noisy view is built fresh on each call.
type Oracle struct {
	cfg     OracleConfig
	labels  []ident.Tag
	correct []bool
	nCor    int
	// reveal[f] reports whether faulty process f is in the audience of
	// correct labels (the T4 ablation).
	reveal []bool
	// exact is the post-GST view at a correct process and faultySelf[i]
	// the view at faulty process i (nil for correct i). Both are fixed
	// for the run, so they are built once and handed out shared.
	exact      View
	faultySelf []View
}

// NewOracle builds an oracle for a run in which process i crashes iff
// correct[i] is false. (The crash *times* live in the simulator's
// schedule; the oracle only needs the final correct set, because its
// pre-GST noise already covers every legal transient.)
func NewOracle(cfg OracleConfig, correct []bool) *Oracle {
	if cfg.N != len(correct) {
		panic("fd: OracleConfig.N disagrees with correct slice")
	}
	if cfg.NoisePeriod <= 0 {
		cfg.NoisePeriod = 50
	}
	o := &Oracle{
		cfg:     cfg,
		labels:  make([]ident.Tag, cfg.N),
		correct: append([]bool(nil), correct...),
		reveal:  make([]bool, cfg.N),
	}
	src := ident.NewSource(xrand.SplitLabeled(cfg.Seed, "fd-labels"))
	for i := range o.labels {
		o.labels[i] = src.Next()
		if correct[i] {
			o.nCor++
		}
	}
	// Choose which faulty processes receive correct labels (ablation).
	if cfg.RevealToFaulty > 0 {
		left := cfg.RevealToFaulty
		for i := 0; i < cfg.N && left > 0; i++ {
			if !o.correct[i] {
				o.reveal[i] = true
				left--
			}
		}
	}
	o.exact = make(View, 0, o.nCor)
	for i, c := range o.correct {
		if c {
			o.exact = append(o.exact, Pair{Label: o.labels[i], Number: o.nCor})
		}
	}
	o.exact = slices.Clip(Normalize(o.exact))
	o.faultySelf = make([]View, cfg.N)
	for i, c := range o.correct {
		if !c {
			// Own label with the minimum accurate number (2: any 2-subset
			// of {owner} ∪ Correct contains a correct process), plus —
			// under the reveal ablation — the correct pairs.
			v := View{{Label: o.labels[i], Number: 2}}
			if o.reveal[i] {
				v = append(v, o.exact...)
			}
			o.faultySelf[i] = slices.Clip(Normalize(v))
		}
	}
	return o
}

// Label exposes process i's label for tests and trace annotation. The
// algorithms never see this mapping.
func (o *Oracle) Label(i int) ident.Tag { return o.labels[i] }

// NumCorrect returns |Correct| for the run.
func (o *Oracle) NumCorrect() int { return o.nCor }

// CorrectLabels returns the labels of all correct processes, in index
// order, for validators.
func (o *Oracle) CorrectLabels() []ident.Tag {
	out := make([]ident.Tag, 0, o.nCor)
	for i, c := range o.correct {
		if c {
			out = append(out, o.labels[i])
		}
	}
	return out
}

// noiseFor derives the deterministic pre-GST noise stream for (proc,
// epoch, which) where which distinguishes AΘ from AP*.
func (o *Oracle) noiseFor(proc int, now int64, which uint64) *xrand.Source {
	epoch := uint64(now / o.cfg.NoisePeriod)
	return xrand.New(xrand.HashStream(o.cfg.Seed, uint64(proc), epoch, which))
}

// fixed returns process i's view at virtual time now when it does not
// depend on time: a faulty process's own view, and every correct
// process's exact view from GST on (or always, without noise).
func (o *Oracle) fixed(i int, now int64) (View, bool) {
	if !o.correct[i] {
		return o.faultySelf[i], true
	}
	if o.cfg.Noise == NoiseExact || now >= o.cfg.GST {
		return o.exact, true
	}
	return nil, false
}

// ATheta returns process i's AΘ view at virtual time now.
func (o *Oracle) ATheta(i int, now int64) View {
	if v, fixed := o.fixed(i, now); fixed {
		return v
	}
	rng := o.noiseFor(i, now, 1)
	v := make(View, 0, o.cfg.N)
	for j, c := range o.correct {
		if c {
			// Pre-GST a correct pair may be missing (completeness is
			// eventual) and its number may be anything ≥ 1 (any subset of
			// S(ℓ) ⊆ Correct∪{owner} of size ≥ 1 … any 1-subset of a set of
			// correct processes is correct, so accuracy holds for all k ≥ 1).
			if rng.Bool(0.3) {
				continue // omitted this epoch
			}
			n := 1 + rng.Intn(o.cfg.N)
			v = append(v, Pair{Label: o.labels[j], Number: n})
		} else if o.cfg.Noise == NoiseAdversarial {
			// Show a faulty process's label to correct processes with an
			// accurate number (≥ 2 guards the subset property, because
			// S(ℓ_j) = Correct ∪ {j} and any 2-subset contains a correct
			// process).
			if rng.Bool(0.5) {
				n := 2 + rng.Intn(o.cfg.N)
				v = append(v, Pair{Label: o.labels[j], Number: n})
			}
		}
	}
	return Normalize(v)
}

// APStar returns process i's AP* view at virtual time now.
func (o *Oracle) APStar(i int, now int64) View {
	if v, fixed := o.fixed(i, now); fixed {
		return v
	}
	rng := o.noiseFor(i, now, 2)
	// Perpetual containment (invariant 3): every correct pair is always
	// present with number ≥ |Correct|. Numbers may be inflated pre-GST.
	v := make(View, 0, o.cfg.N)
	for j, c := range o.correct {
		if c {
			n := o.nCor
			if rng.Bool(0.4) {
				n += rng.Intn(o.cfg.N - o.nCor + 1)
			}
			v = append(v, Pair{Label: o.labels[j], Number: n})
		} else if rng.Bool(0.5) {
			// A not-yet-removed faulty pair (AP*-accuracy is eventual).
			v = append(v, Pair{Label: o.labels[j], Number: 2 + rng.Intn(o.cfg.N)})
		}
	}
	return Normalize(v)
}

// Handle binds the oracle to one process with a clock, yielding the
// Detector the algorithm consumes. A process whose view never changes
// (any faulty process, every process without noise) gets a Static
// holding it, which reads no clock.
func (o *Oracle) Handle(proc int, clock func() int64) Detector {
	if !o.correct[proc] || o.cfg.Noise == NoiseExact {
		v, _ := o.fixed(proc, 0)
		return Static{Theta: v, Star: v}
	}
	return Func{
		ThetaFn: func() View { return o.ATheta(proc, clock()) },
		StarFn:  func() View { return o.APStar(proc, clock()) },
	}
}
