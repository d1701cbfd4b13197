package transport

import (
	"reflect"
	"testing"

	"spdier/internal/tcpsim"
)

type sinkProbe struct{}

func (sinkProbe) Sample(tcpsim.ProbeSample) {}

// TestApplyCoversEverySpecField: every Spec field except Kind must
// change the applied Config under some perturbation, so an arm that sets
// a field is guaranteed to configure what it claims to measure. Kind is
// exempt (it selects client/session machinery, not a Config knob). A new
// Spec field fails this test until a perturbation (and an assignment in
// Apply) exists for it.
func TestApplyCoversEverySpecField(t *testing.T) {
	perturb := map[string]func(*Spec){
		"Kind":               nil, // exempt: not a Config knob
		"CC":                 func(s *Spec) { s.CC = "reno" },
		"Recovery":           func(s *Spec) { s.Recovery = tcpsim.RecoveryPolicy{TLP: true, RACK: true, FRTO: true} },
		"SlowStartAfterIdle": func(s *Spec) { s.SlowStartAfterIdle = true },
		"ResetRTTAfterIdle":  func(s *Spec) { s.ResetRTTAfterIdle = true },
		"DisableUndo":        func(s *Spec) { s.DisableUndo = true },
		"ZeroRTT":            func(s *Spec) { s.ZeroRTT = true },
		"Metrics":            func(s *Spec) { s.Metrics = tcpsim.NewMetricsCache() },
		"Probe":              func(s *Spec) { s.Probe = sinkProbe{} },
	}

	base := tcpsim.Config{}
	zero := Spec{}.Apply(base)

	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fn, covered := perturb[name]
		if !covered {
			t.Errorf("Spec.%s has no perturbation here: decide how Apply sets it", name)
			continue
		}
		if fn == nil {
			continue
		}
		var s Spec
		fn(&s)
		if reflect.DeepEqual(s.Apply(base), zero) {
			t.Errorf("Spec.%s: perturbation did not change the composed Config — Apply does not set the field", name)
		}
	}
}
