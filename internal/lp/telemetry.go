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
	Active    int           // constraints violated at x (multiplicities of the kernel's active rows)
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
}

// newEpochTelemetry returns nil when no hook is set.
func newEpochTelemetry(opts Options) *epochTelemetry {
	if opts.OnEpoch == nil {
		return nil
	}
	return &epochTelemetry{hook: opts.OnEpoch, start: time.Now()}
}

// emitPrecomputed invokes the hook with quantities the kernel solve
// already has in hand — the fused pass yields the hinge total and the
// violated count, and the update loop accumulates the squared gradient and
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
