package tcpsim

import (
	"math"
	"time"

	"spdier/internal/sim"
)

// CongestionControl is the pluggable window-growth policy. The connection
// calls it on ACKs in congestion avoidance and asks it for the new
// ssthresh after a loss event; slow start (cwnd += 1 per ACKed segment
// while cwnd < ssthresh) is common to all variants and handled by Conn.
//
// cwnd and ssthresh are counted in segments, as the paper reports them.
type CongestionControl interface {
	Name() string
	// OnAckCA returns the cwnd increment (in segments, may be
	// fractional) for ackedSegs newly acknowledged segments while in
	// congestion avoidance with the given cwnd.
	OnAckCA(now sim.Time, cwnd float64, ackedSegs int, srtt time.Duration) float64
	// SsthreshAfterLoss returns the new ssthresh given the cwnd at loss.
	SsthreshAfterLoss(cwnd float64) float64
	// OnLoss lets the variant snapshot state (CUBIC records W_max and
	// restarts its epoch).
	OnLoss(now sim.Time, cwnd float64)
	// OnUndo is called when a loss episode is proven spurious and the
	// connection restores its pre-loss cwnd/ssthresh (F-RTO / Eifel
	// undo): the variant rolls back the bookkeeping OnLoss installed, so
	// a phantom loss leaves no trace in its growth trajectory.
	OnUndo(now sim.Time, cwnd float64)
	// OnExitRecovery is called when recovery completes.
	OnExitRecovery(now sim.Time, cwnd float64)
	// Reset clears variant state (new connection or idle restart).
	Reset()
}

// NewCC constructs a congestion control variant by name ("reno" or
// "cubic"); unknown names panic, since they always indicate an
// experiment-config typo.
func NewCC(name string) CongestionControl { return newCC(name, nil) }

// newCC is NewCC for a caller with room for a Cubic of its own (a
// connection pair): if name selects the built-in CUBIC, the controller
// is built in cubic instead of allocated.
func newCC(name string, cubic *Cubic) CongestionControl {
	if name == "" {
		name = "reno"
	}
	ctor, ok := ccRegistry[name]
	if !ok {
		panic("tcpsim: unknown congestion control " + name)
	}
	if ctor.builtinCubic && cubic != nil {
		*cubic = cubicDefaults
		return cubic
	}
	return ctor.new()
}

// Reno is classic AIMD: +1 segment per RTT in congestion avoidance,
// multiplicative decrease to half on loss.
type Reno struct{}

func (r *Reno) Name() string { return "reno" }

func (r *Reno) OnAckCA(_ sim.Time, cwnd float64, ackedSegs int, _ time.Duration) float64 {
	if cwnd <= 0 {
		cwnd = 1
	}
	return float64(ackedSegs) / cwnd
}

func (r *Reno) SsthreshAfterLoss(cwnd float64) float64 {
	s := cwnd / 2
	if s < 2 {
		s = 2
	}
	return s
}

func (r *Reno) OnLoss(sim.Time, float64)         {}
func (r *Reno) OnUndo(sim.Time, float64)         {}
func (r *Reno) OnExitRecovery(sim.Time, float64) {}
func (r *Reno) Reset()                           {}

// Cubic implements RFC 8312 CUBIC congestion avoidance, the Linux
// default the paper's proxy ran. Its window is a cubic function of time
// since the last loss: it first plateaus near W_max (probing) and then
// grows aggressively — the "first probes and then has an exponential
// growth" pattern the paper observes in Figure 12.
type Cubic struct {
	c    float64 // scaling constant, 0.4
	beta float64 // multiplicative decrease, 0.7

	wMax       float64
	priorWMax  float64 // wMax before the last OnLoss, for spurious-loss undo
	epochStart sim.Time
	hasEpoch   bool
	k          float64 // time (s) to regrow to wMax
	ackCount   float64 // for the TCP-friendly estimate
	wEst       float64
}

// cubicDefaults is CUBIC with the RFC 8312 constants.
var cubicDefaults = Cubic{c: 0.4, beta: 0.7}

// NewCubic returns CUBIC with the RFC 8312 constants.
func NewCubic() *Cubic {
	cu := cubicDefaults
	return &cu
}

func (cu *Cubic) Name() string { return "cubic" }

func (cu *Cubic) Reset() {
	cu.wMax = 0
	cu.priorWMax = 0
	cu.hasEpoch = false
	cu.k = 0
	cu.ackCount = 0
	cu.wEst = 0
}

func (cu *Cubic) OnLoss(now sim.Time, cwnd float64) {
	cu.priorWMax = cu.wMax
	// Fast convergence (RFC 8312 §4.6).
	if cwnd < cu.wMax {
		cu.wMax = cwnd * (1 + cu.beta) / 2
	} else {
		cu.wMax = cwnd
	}
	cu.hasEpoch = false
}

// OnUndo rolls back the last OnLoss: the loss was phantom, so the
// fast-convergence W_max reduction must not depress the next epoch's
// plateau (Linux tcp_cubic leaves this to the generic undo restoring
// cwnd; restoring W_max keeps the cubic target consistent with it).
func (cu *Cubic) OnUndo(now sim.Time, cwnd float64) {
	cu.wMax = cu.priorWMax
	if cu.wMax < cwnd {
		cu.wMax = cwnd
	}
	cu.hasEpoch = false
}

func (cu *Cubic) OnExitRecovery(now sim.Time, cwnd float64) {
	cu.hasEpoch = false
}

func (cu *Cubic) SsthreshAfterLoss(cwnd float64) float64 {
	s := cwnd * cu.beta
	if s < 2 {
		s = 2
	}
	return s
}

func (cu *Cubic) OnAckCA(now sim.Time, cwnd float64, ackedSegs int, srtt time.Duration) float64 {
	if srtt <= 0 {
		srtt = 100 * time.Millisecond
	}
	if !cu.hasEpoch {
		cu.epochStart = now
		cu.hasEpoch = true
		if cu.wMax < cwnd {
			cu.wMax = cwnd
		}
		cu.k = math.Cbrt(cu.wMax * (1 - cu.beta) / cu.c)
		cu.ackCount = 0
		cu.wEst = cwnd
	}

	t := now.Sub(cu.epochStart).Seconds() + srtt.Seconds()
	// The conversion rounds the product on its own, so no architecture
	// may fuse it with the sum (sim's TestNoFusedMultiplyAdd).
	target := float64(cu.c*math.Pow(t-cu.k, 3)) + cu.wMax

	// TCP-friendly region (RFC 8312 §4.2).
	cu.ackCount += float64(ackedSegs)
	cu.wEst += 3 * (1 - cu.beta) / (1 + cu.beta) * float64(ackedSegs) / cwnd
	if cu.wEst < cwnd {
		cu.wEst = cwnd
	}
	if target < cu.wEst {
		target = cu.wEst
	}

	if target <= cwnd {
		// Probing plateau: crawl forward very slowly.
		return float64(ackedSegs) / (100 * cwnd)
	}
	// Spread the climb to target over roughly one RTT of ACKs.
	inc := (target - cwnd) / cwnd * float64(ackedSegs)
	// Cap growth at slow-start pace.
	if inc > float64(ackedSegs) {
		inc = float64(ackedSegs)
	}
	return inc
}
