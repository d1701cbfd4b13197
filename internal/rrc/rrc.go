// Package rrc models cellular Radio Resource Control state machines.
//
// Every device in a cellular network follows a well-defined radio state
// machine (3GPP TS 25.331 for UMTS, TS 36.331 for LTE) that determines
// when it may send or receive data. The machine exists to share radio
// resources and save battery: after a period of inactivity the radio is
// demoted toward an idle state, and the next transfer must wait for a
// *promotion delay* before any data flows.
//
// This promotion delay — roughly 2 seconds on 3G, 400 ms on LTE — is the
// causal mechanism behind the paper's headline result: it exceeds TCP's
// retransmission timeout computed from the RTTs observed while the radio
// was active, so the first transfer after an idle period suffers spurious
// timeouts and retransmissions.
//
// The package provides a generic Machine driven by activity notifications
// and inactivity timers, with concrete profiles for 3G UMTS
// (IDLE / CELL_FACH / CELL_DCH) and LTE (RRC_IDLE / RRC_CONNECTED with
// Continuous reception, Short DRX and Long DRX sub-states), matching
// Figure 18 of the paper.
package rrc

import (
	"fmt"
	"time"

	"spdier/internal/sim"
)

// State identifies a radio state across both 3G and LTE machines.
type State int

const (
	// Idle3G: no radio resources allocated, no power drawn. 3G.
	Idle3G State = iota
	// FACH: shared forward access channel; low-rate transfers only. 3G.
	FACH
	// DCH: dedicated channel; full-rate transfers. 3G.
	DCH
	// IdleLTE: RRC_IDLE, radio released. LTE.
	IdleLTE
	// Continuous: RRC_CONNECTED continuous reception, full rate. LTE.
	Continuous
	// ShortDRX: RRC_CONNECTED short discontinuous reception. LTE.
	ShortDRX
	// LongDRX: RRC_CONNECTED long discontinuous reception. LTE.
	LongDRX
	// AlwaysOn models a wired or WiFi NIC: no state machine at all.
	AlwaysOn
)

func (s State) String() string {
	switch s {
	case Idle3G:
		return "IDLE"
	case FACH:
		return "CELL_FACH"
	case DCH:
		return "CELL_DCH"
	case IdleLTE:
		return "RRC_IDLE"
	case Continuous:
		return "CONTINUOUS"
	case ShortDRX:
		return "SHORT_DRX"
	case LongDRX:
		return "LONG_DRX"
	case AlwaysOn:
		return "ALWAYS_ON"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Active reports whether data can flow at full rate in this state.
func (s State) Active() bool {
	return s == DCH || s == Continuous || s == AlwaysOn
}

// Transition records one state change for tracing and tests.
type Transition struct {
	At   sim.Time
	From State
	To   State
}

// Profile describes the timers, promotion delays and power draw of one
// radio technology. All delays follow Figure 18 and Appendix A of the
// paper; the paper notes the exact timer values vary across vendors and
// carriers, so everything is a parameter.
type Profile struct {
	Name string

	// Initial is the state a freshly created machine starts in.
	Initial State

	// PromotionDelay maps a (from → active) promotion to the delay the
	// device incurs before data can flow. During this window packets are
	// buffered by the network and nothing — not even ACKs — moves.
	PromotionDelay map[State]time.Duration

	// Demotions lists inactivity-driven transitions: after Idle of
	// inactivity in From, the machine moves to To.
	Demotions []Demotion

	// FACHQueueThreshold is the number of queued bytes that triggers a
	// FACH→DCH promotion on 3G (the "queue size > threshold" arc in
	// Figure 18). Zero means any data in FACH triggers promotion.
	FACHQueueThreshold int

	// FACHRate is the low bit rate available in CELL_FACH, bits/sec.
	// Zero means no data can flow outside the full-rate state.
	FACHRate int64

	// Power draw per state in milliwatts, for energy accounting
	// (Figure 14's "keeping the radio in DCH wastes battery" point).
	PowerMW map[State]float64
}

// Demotion is an inactivity-driven downward transition.
type Demotion struct {
	From State
	To   State
	Idle time.Duration
}

// Profile3G returns the UMTS profile from Figure 18: ~2 s IDLE→DCH
// promotion, DCH→FACH after 5 s idle, FACH→IDLE after a further 12 s,
// and a 1.5 s FACH→DCH promotion when the queue builds up.
func Profile3G() Profile {
	return Profile{
		Name:    "3G-UMTS",
		Initial: Idle3G,
		PromotionDelay: map[State]time.Duration{
			Idle3G: 2 * time.Second,
			FACH:   1500 * time.Millisecond,
		},
		Demotions: []Demotion{
			{From: DCH, To: FACH, Idle: 5 * time.Second},
			{From: FACH, To: Idle3G, Idle: 12 * time.Second},
		},
		FACHQueueThreshold: 512,
		FACHRate:           16_000, // shared channel, a few KB/s
		PowerMW: map[State]float64{
			Idle3G: 0,
			FACH:   460,
			DCH:    800,
		},
	}
}

// ProfileLTE returns the LTE profile from Figure 18: 400 ms
// RRC_IDLE→CONNECTED promotion, 100 ms to Short DRX, 400 ms of Short DRX
// before Long DRX, and 11.5 s of Long DRX before releasing to RRC_IDLE.
// Waking from DRX is fast (one DRX cycle) compared to a full promotion.
func ProfileLTE() Profile {
	return Profile{
		Name:    "LTE",
		Initial: IdleLTE,
		PromotionDelay: map[State]time.Duration{
			IdleLTE:  400 * time.Millisecond,
			ShortDRX: 20 * time.Millisecond,
			LongDRX:  40 * time.Millisecond,
		},
		Demotions: []Demotion{
			{From: Continuous, To: ShortDRX, Idle: 100 * time.Millisecond},
			{From: ShortDRX, To: LongDRX, Idle: 400 * time.Millisecond},
			{From: LongDRX, To: IdleLTE, Idle: 11500 * time.Millisecond},
		},
		PowerMW: map[State]float64{
			IdleLTE:    15,
			Continuous: 1000,
			ShortDRX:   700,
			LongDRX:    600,
		},
	}
}

// ProfileAlwaysOn returns a degenerate machine for wired/WiFi paths:
// always active, zero promotion delay. Using the same Machine type keeps
// the link code identical across access technologies.
func ProfileAlwaysOn() Profile {
	return Profile{
		Name:           "always-on",
		Initial:        AlwaysOn,
		PromotionDelay: map[State]time.Duration{},
		PowerMW:        map[State]float64{AlwaysOn: 0},
	}
}

// Machine is an RRC state machine instance bound to a simulation loop.
type Machine struct {
	loop    *sim.Loop
	profile Profile

	state        State
	promoting    bool
	promoteDone  sim.Time
	promoteTo    State
	lastActivity sim.Time
	demoteTimer  sim.Timer

	// Prebound timer callbacks. The demotion timer is re-armed on every
	// packet, so its callback must not be a fresh closure each time; the
	// pending demotion's parameters live in demoteFrom/demoteTarget
	// (always consistent because arming stops any previous timer first).
	demoteFn     func()
	demoteFrom   sim.Time
	demoteTarget State
	promoteFn    func()

	// Energy accounting.
	lastPowerAt sim.Time
	energyMJ    float64 // millijoules = mW * s

	transitions []Transition
	onChange    func(Transition)
	promotions  int
}

// NewMachine creates a machine in the profile's initial state.
func NewMachine(loop *sim.Loop, p Profile) *Machine {
	m := &Machine{
		loop:        loop,
		profile:     p,
		state:       p.Initial,
		lastPowerAt: loop.Now(),
	}
	m.demoteFn = func() {
		// Only demote if truly idle since demoteFrom.
		if m.lastActivity > m.demoteFrom || m.promoting {
			return
		}
		m.setState(m.demoteTarget)
		m.scheduleDemotionChain(m.loop.Now())
	}
	m.promoteFn = func() {
		m.promoting = false
		m.setState(m.promoteTo)
		m.armDemotion(m.loop.Now())
	}
	return m
}

// State returns the current radio state. During a promotion the machine
// reports the *target is not yet reached*: state remains the old state
// until the promotion delay elapses.
func (m *Machine) State() State { return m.state }

// Profile returns the machine's profile.
func (m *Machine) Profile() Profile { return m.profile }

// Promotions reports how many promotions (with non-zero delay) occurred.
func (m *Machine) Promotions() int { return m.promotions }

// Transitions returns the recorded state-change log.
func (m *Machine) Transitions() []Transition { return m.transitions }

// OnChange registers a callback invoked on every state change.
func (m *Machine) OnChange(fn func(Transition)) { m.onChange = fn }

// EnergyMilliJoules returns the accumulated radio energy up to now.
func (m *Machine) EnergyMilliJoules() float64 {
	m.accrueEnergy()
	return m.energyMJ
}

func (m *Machine) accrueEnergy() {
	now := m.loop.Now()
	dt := now.Sub(m.lastPowerAt).Seconds()
	if dt > 0 {
		// The conversion rounds the product on its own, so no
		// architecture may fuse it with the sum (sim's
		// TestNoFusedMultiplyAdd).
		m.energyMJ += float64(m.profile.PowerMW[m.state] * dt)
		m.lastPowerAt = now
	}
}

func (m *Machine) setState(s State) {
	if s == m.state {
		return
	}
	m.accrueEnergy()
	tr := Transition{At: m.loop.Now(), From: m.state, To: s}
	m.state = s
	m.transitions = append(m.transitions, tr)
	if m.onChange != nil {
		m.onChange(tr)
	}
}

// fullRateState returns the state data transfers promote into.
func (m *Machine) fullRateState() State {
	switch m.profile.Initial {
	case IdleLTE:
		return Continuous
	case AlwaysOn:
		return AlwaysOn
	default:
		return DCH
	}
}

// ReadyAt records data activity of size bytes at the current time and
// returns the virtual time at which the radio can actually carry that
// data. For an active radio this is now; for an idle radio it is
// now + promotion delay. Small transfers on 3G may ride CELL_FACH without
// promotion (the "ping trick" of Figure 14 exploits exactly this: FACH
// still resets the demotion timers).
//
// ReadyAt also (re)arms the inactivity demotion timer.
func (m *Machine) ReadyAt(bytes int) sim.Time {
	now := m.loop.Now()
	m.lastActivity = now

	if m.state == AlwaysOn {
		return now
	}

	// A promotion already in progress: data rides once it completes.
	if m.promoting {
		m.armDemotion(m.promoteDone)
		return m.promoteDone
	}

	if m.state.Active() {
		m.armDemotion(now)
		return now
	}

	// FACH can carry small transfers without promotion.
	if m.state == FACH && m.profile.FACHQueueThreshold > 0 && bytes <= m.profile.FACHQueueThreshold {
		m.armDemotion(now)
		return now
	}

	// Need a promotion.
	delay, ok := m.profile.PromotionDelay[m.state]
	if !ok {
		// No promotion defined (shouldn't happen with the built-in
		// profiles); treat as instantaneous.
		m.setState(m.fullRateState())
		m.armDemotion(now)
		return now
	}
	m.promoting = true
	m.promoteDone = now.Add(delay)
	m.promoteTo = m.fullRateState()
	if delay > 0 {
		m.promotions++
	}
	m.loop.At(m.promoteDone, m.promoteFn)
	return m.promoteDone
}

// armDemotion schedules the inactivity demotion appropriate for the state
// the machine will be in at time from, cancelling any previous timer.
func (m *Machine) armDemotion(from sim.Time) {
	m.demoteTimer.Stop()
	m.scheduleDemotionChain(from)
}

func (m *Machine) scheduleDemotionChain(from sim.Time) {
	st := m.state
	if m.promoting {
		st = m.promoteTo
	}
	var d *Demotion
	for i := range m.profile.Demotions {
		if m.profile.Demotions[i].From == st {
			d = &m.profile.Demotions[i]
			break
		}
	}
	if d == nil {
		return
	}
	m.demoteFrom = from
	m.demoteTarget = d.To
	m.demoteTimer = m.loop.At(from.Add(d.Idle), m.demoteFn)
}

// CurrentRate returns the data rate ceiling imposed by the radio state in
// bits/sec, or 0 for "unconstrained by RRC" (full-rate states delegate to
// the link's configured bandwidth). While a promotion is in progress the
// ceiling is already the target state's: packets held for the promotion
// are delivered at the promoted rate, not the old shared-channel rate.
func (m *Machine) CurrentRate() int64 {
	if m.promoting {
		return 0
	}
	if m.state == FACH {
		return m.profile.FACHRate
	}
	return 0
}
