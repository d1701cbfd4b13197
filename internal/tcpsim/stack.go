package tcpsim

// Composable stack layers. An endpoint's behaviour is a set of
// independently selectable layers — congestion control, loss recovery,
// idle policy, undo policy, instrumentation — that compose onto a Config
// instead of being assigned flag by flag at every call site. A layer
// only sets Config fields, so two ways of composing the same stack give
// the same Config and the same simulation.

// RecoveryPolicy bundles the modern loss-recovery fix arms into
// one composable unit. The zero value is the paper-era stack.
type RecoveryPolicy struct {
	// TLP enables tail loss probes (see Config.TLP).
	TLP bool
	// RACK enables time-based loss detection (see Config.RACK).
	RACK bool
	// FRTO enables RFC 5682 spurious-timeout detection with Eifel undo
	// (see Config.FRTO).
	FRTO bool
}

// PaperEra is the recovery policy of the paper's 2013 proxy stack: no
// modern arms at all.
func PaperEra() RecoveryPolicy { return RecoveryPolicy{} }

// ModernLinux is the composition Linux actually ships today: all three
// arms stacked.
func ModernLinux() RecoveryPolicy { return RecoveryPolicy{TLP: true, RACK: true, FRTO: true} }

// Recovery reports the endpoint's recovery policy as one value.
func (c Config) Recovery() RecoveryPolicy {
	return RecoveryPolicy{TLP: c.TLP, RACK: c.RACK, FRTO: c.FRTO}
}

// WithRecovery returns a copy of the Config with the recovery arms set
// from the policy.
func (c Config) WithRecovery(p RecoveryPolicy) Config {
	c.TLP, c.RACK, c.FRTO = p.TLP, p.RACK, p.FRTO
	return c
}

// ccRegistry maps congestion-control names to constructors. The two
// built-in variants are registered at init; experiments and tests may
// register additional variants. Lookup only — the map is never ranged
// over, so registration order cannot perturb a simulation.
var ccRegistry = map[string]ccCtor{}

// ccCtor is one registered variant. builtinCubic marks the one whose
// state a connection pair has room for (newCC).
type ccCtor struct {
	new          func() CongestionControl
	builtinCubic bool
}

// RegisterCC installs a congestion-control constructor under name.
// Registering an existing name replaces it (tests use this to wrap a
// variant); registration must happen before simulations start.
func RegisterCC(name string, ctor func() CongestionControl) {
	if ctor == nil {
		panic("tcpsim: RegisterCC with nil constructor")
	}
	ccRegistry[name] = ccCtor{new: ctor}
}

func init() {
	RegisterCC("reno", func() CongestionControl { return &Reno{} })
	ccRegistry["cubic"] = ccCtor{new: func() CongestionControl { return NewCubic() }, builtinCubic: true}
}
