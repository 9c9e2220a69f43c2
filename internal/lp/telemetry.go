package lp

import (
	"math"
	"time"
)

// EpochStats is one per-epoch telemetry sample emitted through
// Options.OnEpoch. All quantities refer to the state *after* the
// epoch's projected update.
type EpochStats struct {
	Epoch     int           // 1-based epoch number
	Objective float64       // hinge violation + L1 term at x
	Best      float64       // best objective seen so far
	Violation float64       // total hinge violation at x
	Active    int           // constraints violated at x (the kernel's compacted list)
	L1        float64       // λ-weighted L1 term over free variables
	GradNorm  float64       // L2 norm of the subgradient over free variables
	StepSize  float64       // L2 norm of the projected update Δx
	Elapsed   time.Duration // wall time since the solve started
}

// epochTelemetry carries the bookkeeping needed to emit EpochStats.
// A nil *epochTelemetry (hook unset) costs one pointer check per epoch,
// keeping the no-sink path at its previous speed.
type epochTelemetry struct {
	hook  func(EpochStats)
	start time.Time
	prevX []float64
}

// newEpochTelemetry returns nil when no hook is set. x is the start
// iterate emit measures the first step against; the kernel solve, which
// accumulates its own step norm for emitPrecomputed, passes nil.
func newEpochTelemetry(opts Options, x []float64) *epochTelemetry {
	if opts.OnEpoch == nil {
		return nil
	}
	return &epochTelemetry{
		hook:  opts.OnEpoch,
		start: time.Now(),
		prevX: append([]float64(nil), x...),
	}
}

// emitPrecomputed invokes the hook with quantities the kernel solve
// already has in hand — the fused pass yields the hinge total and the
// active count, and the update loop accumulates the squared gradient and
// step norms — so the telemetry path re-walks nothing.
func (et *epochTelemetry) emitPrecomputed(epoch int, obj, best, hinge float64, active int, gradSq, stepSq float64) {
	if et == nil {
		return
	}
	et.hook(EpochStats{
		Epoch:     epoch,
		Objective: obj,
		Best:      best,
		Violation: hinge,
		Active:    active,
		L1:        obj - hinge,
		GradNorm:  math.Sqrt(gradSq),
		StepSize:  math.Sqrt(stepSq),
		Elapsed:   time.Since(et.start),
	})
}

// emit computes the derived quantities and invokes the hook. obj and
// best are the caller's already-computed objective values; the hinge
// part is re-evaluated so the L1 term falls out by subtraction.
func (et *epochTelemetry) emit(p *Problem, epoch int, x, grad []float64, free []bool, obj, best float64) {
	if et == nil {
		return
	}
	hinge, active := 0.0, 0
	for i := range p.Constraints {
		if v := p.Constraints[i].Violation(x, p.C); v > 0 {
			hinge += v
			active++
		}
	}
	gradSq, stepSq := 0.0, 0.0
	for i := range x {
		if free != nil && !free[i] {
			continue
		}
		gradSq += grad[i] * grad[i]
		d := x[i] - et.prevX[i]
		stepSq += d * d
	}
	copy(et.prevX, x)
	et.hook(EpochStats{
		Epoch:     epoch,
		Objective: obj,
		Best:      best,
		Violation: hinge,
		Active:    active,
		L1:        obj - hinge,
		GradNorm:  math.Sqrt(gradSq),
		StepSize:  math.Sqrt(stepSq),
		Elapsed:   time.Since(et.start),
	})
}
