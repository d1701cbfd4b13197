package transport

import (
	"reflect"
	"testing"

	"spdier/internal/tcpsim"
)

// TestSpecApplyMatchesLegacyAssignments is the config-level half of the
// layering-equivalence bar: for every knob combination the experiment
// harness ever sets, Spec.Apply must produce a Config field-for-field
// identical to the legacy direct assignments it replaced. (The
// trace-level half lives in internal/experiment/layering_test.go.)
func TestSpecApplyMatchesLegacyAssignments(t *testing.T) {
	rec := tcpsim.NewRecorder()
	mc := tcpsim.NewMetricsCache()

	for _, cc := range []string{"cubic", "reno"} {
		for _, pol := range []tcpsim.RecoveryPolicy{
			{}, {TLP: true}, {RACK: true}, {FRTO: true}, tcpsim.ModernLinux(),
		} {
			for _, ssai := range []bool{true, false} {
				for _, rst := range []bool{true, false} {
					for _, noUndo := range []bool{true, false} {
						base := tcpsim.DefaultConfig()
						base.TLS = true

						legacy := base
						legacy.Probe = rec
						legacy.CC = cc
						legacy.SlowStartAfterIdle = ssai
						legacy.ResetRTTAfterIdle = rst
						legacy.DisableUndo = noUndo
						legacy.TLP = pol.TLP
						legacy.RACK = pol.RACK
						legacy.FRTO = pol.FRTO
						legacy.Metrics = mc

						composed := Spec{
							Kind:               KindSPDY,
							CC:                 cc,
							Recovery:           pol,
							SlowStartAfterIdle: ssai,
							ResetRTTAfterIdle:  rst,
							DisableUndo:        noUndo,
							Metrics:            mc,
							Probe:              rec,
						}.Apply(base)

						if !reflect.DeepEqual(legacy, composed) {
							t.Fatalf("cc=%s pol=%+v ssai=%v rst=%v noUndo=%v:\nlegacy   %+v\ncomposed %+v",
								cc, pol, ssai, rst, noUndo, legacy, composed)
						}
					}
				}
			}
		}
	}
}

// TestApplyPurity: Apply works on a copy of base, and an empty CC
// keeps base's variant.
func TestApplyPurity(t *testing.T) {
	base := tcpsim.DefaultConfig()
	got := Spec{CC: "reno", DisableUndo: true}.Apply(base)
	if got.CC != "reno" || !got.DisableUndo {
		t.Fatalf("Apply dropped a field: CC = %q, DisableUndo = %v", got.CC, got.DisableUndo)
	}
	if base.DisableUndo || base.CC != "cubic" {
		t.Fatalf("Apply mutated its base: %+v", base)
	}
	if got := (Spec{}).Apply(base); got.CC != base.CC {
		t.Fatalf("empty CC overwrote base variant: %q", got.CC)
	}
}

// TestIndividualLayers sets one Spec field at a time and checks the
// Config field it lands in.
func TestIndividualLayers(t *testing.T) {
	base := tcpsim.DefaultConfig()

	c := Spec{Recovery: tcpsim.RecoveryPolicy{TLP: true, FRTO: true}}.Apply(base)
	if !c.TLP || c.RACK || !c.FRTO {
		t.Fatalf("Recovery: got TLP=%v RACK=%v FRTO=%v", c.TLP, c.RACK, c.FRTO)
	}
	if got := c.Recovery(); got != (tcpsim.RecoveryPolicy{TLP: true, FRTO: true}) {
		t.Fatalf("Config.Recovery() = %+v", got)
	}

	c = Spec{ResetRTTAfterIdle: true}.Apply(base)
	if c.SlowStartAfterIdle || !c.ResetRTTAfterIdle {
		t.Fatalf("idle policy: got ssai=%v reset=%v", c.SlowStartAfterIdle, c.ResetRTTAfterIdle)
	}

	c = Spec{ZeroRTT: true}.Apply(base)
	if !c.ZeroRTT {
		t.Fatal("ZeroRTT not applied")
	}

	mc := tcpsim.NewMetricsCache()
	c = Spec{Metrics: mc}.Apply(base)
	if c.Metrics != mc {
		t.Fatal("Metrics not applied")
	}

	rec := tcpsim.NewRecorder()
	c = Spec{Probe: rec}.Apply(base)
	if c.Probe != tcpsim.Probe(rec) {
		t.Fatal("Probe not applied")
	}
}

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k     Kind
		mux   bool
		onTCP bool
	}{
		{KindHTTP, false, true},
		{KindSPDY, true, true},
		{KindH2, true, true},
		{KindQUIC, true, false},
	}
	for _, c := range cases {
		if c.k.Multiplexed() != c.mux || c.k.OverTCP() != c.onTCP {
			t.Errorf("%s: Multiplexed=%v OverTCP=%v, want %v/%v",
				c.k, c.k.Multiplexed(), c.k.OverTCP(), c.mux, c.onTCP)
		}
	}
}

// TestPaperEraAndModernLinux pins the two named policy bundles.
func TestPaperEraAndModernLinux(t *testing.T) {
	if p := tcpsim.PaperEra(); p.TLP || p.RACK || p.FRTO {
		t.Fatalf("PaperEra = %+v, want all arms off", p)
	}
	if m := tcpsim.ModernLinux(); !m.TLP || !m.RACK || !m.FRTO {
		t.Fatalf("ModernLinux = %+v, want all arms on", m)
	}
}
